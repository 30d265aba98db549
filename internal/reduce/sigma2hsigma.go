package reduce

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// DefaultPollInterval is the sampling period of the "repeat forever" loops
// in the reduction algorithms.
const DefaultPollInterval sim.Time = 5

// SigmaToHSigmaKnown is Figure 1: transforming a detector D ∈ Σ into a
// detector of class HΣ in a system with unique identifiers where every
// process initially knows the membership I(Π). No communication is used:
// h_labels is fixed to every subset of I(Π) containing id(p), and the
// repeat-forever loop accumulates pairs (q, q) for every value q read from
// D.trusted.
type SigmaToHSigmaKnown struct {
	env        sim.Environment
	membership *multiset.Multiset[ident.ID]
	labels     []fd.Label
	quorumLog
}

// quorumLog is the h_quora half Figures 1 and 2 share: the repeat-forever
// loop reads a quorum q from D.trusted and adds the pair (q, q) the first
// time it sees q.
type quorumLog struct {
	source fd.Sigma
	quora  []fd.QuorumPair
	known  map[fd.Label]bool
}

func newQuorumLog(source fd.Sigma) quorumLog {
	return quorumLog{source: source, known: make(map[fd.Label]bool)}
}

func (l *quorumLog) sample() {
	q := l.source.TrustedQuorum()
	label := fd.Label(q.Key())
	if l.known[label] {
		return
	}
	l.known[label] = true
	l.quora = append(l.quora, fd.QuorumPair{Label: label, M: q.Clone()})
}

var (
	_ sim.Process = (*SigmaToHSigmaKnown)(nil)
	_ fd.HSigma   = (*SigmaToHSigmaKnown)(nil)
)

// NewSigmaToHSigmaKnown builds the Figure 1 transformer for one process.
// membership is I(Π); source is the Σ detector D.
func NewSigmaToHSigmaKnown(source fd.Sigma, membership *multiset.Multiset[ident.ID]) *SigmaToHSigmaKnown {
	return &SigmaToHSigmaKnown{membership: membership.Clone(), quorumLog: newQuorumLog(source)}
}

// Init implements sim.Process: fix h_labels and start the polling loop.
func (m *SigmaToHSigmaKnown) Init(env sim.Environment) {
	m.env = env
	for _, s := range SubMultisetsContaining(m.membership, env.ID()) {
		m.labels = append(m.labels, fd.Label(s.Key()))
	}
	m.sample()
	env.SetTimer(DefaultPollInterval, 0)
}

// OnTimer implements sim.Process (the repeat-forever loop).
func (m *SigmaToHSigmaKnown) OnTimer(tag int) {
	m.sample()
	m.env.SetTimer(DefaultPollInterval, tag)
}

// OnMessage implements sim.Process; Figure 1 uses no messages.
func (m *SigmaToHSigmaKnown) OnMessage(any) {}

// Quora implements fd.HSigma.
func (m *SigmaToHSigmaKnown) Quora() []fd.QuorumPair { return m.quora }

// Labels implements fd.HSigma.
func (m *SigmaToHSigmaKnown) Labels() []fd.Label { return m.labels }

// SigmaToHSigmaUnknown is Figure 2: the same transformation without
// initial knowledge of the membership. Task T1 repeatedly broadcasts
// IDENT(id(p)) and samples D.trusted into h_quora; Task T2 accumulates the
// received identifiers into mship and recomputes h_labels as every subset
// of mship containing id(p).
type SigmaToHSigmaUnknown struct {
	env sim.Environment
	// identMsg is IDENT(id(p)), boxed once in Init: the value never changes,
	// so every period broadcasts the same box.
	identMsg any

	mship  *multiset.Multiset[ident.ID] // set semantics: unique-id system
	labels []fd.Label
	quorumLog
}

// IdentMsg is Figure 2's IDENT(id) message.
type IdentMsg struct {
	ID ident.ID
}

// MsgTag implements sim.Tagger.
func (IdentMsg) MsgTag() string { return "IDENT" }

var (
	_ sim.Process = (*SigmaToHSigmaUnknown)(nil)
	_ fd.HSigma   = (*SigmaToHSigmaUnknown)(nil)
)

// NewSigmaToHSigmaUnknown builds the Figure 2 transformer.
func NewSigmaToHSigmaUnknown(source fd.Sigma) *SigmaToHSigmaUnknown {
	return &SigmaToHSigmaUnknown{mship: multiset.New[ident.ID](), quorumLog: newQuorumLog(source)}
}

// Init implements sim.Process.
func (m *SigmaToHSigmaUnknown) Init(env sim.Environment) {
	m.env = env
	m.identMsg = IdentMsg{ID: env.ID()}
	env.Broadcast(m.identMsg)
	m.sample()
	env.SetTimer(DefaultPollInterval, 0)
}

// OnTimer implements sim.Process (Task T1).
func (m *SigmaToHSigmaUnknown) OnTimer(tag int) {
	m.env.Broadcast(m.identMsg)
	m.sample()
	m.env.SetTimer(DefaultPollInterval, tag)
}

// OnMessage implements sim.Process (Task T2).
func (m *SigmaToHSigmaUnknown) OnMessage(payload any) {
	msg, ok := payload.(IdentMsg)
	if !ok {
		return
	}
	if m.mship.Contains(msg.ID) {
		return
	}
	m.mship.Add(msg.ID)
	// A fresh slice: the one Labels returned before is not written to.
	subs := SubMultisetsContaining(m.mship, m.env.ID())
	labels := make([]fd.Label, len(subs))
	for i, s := range subs {
		labels[i] = fd.Label(s.Key())
	}
	m.labels = labels
}

// Quora implements fd.HSigma.
func (m *SigmaToHSigmaUnknown) Quora() []fd.QuorumPair { return m.quora }

// Labels implements fd.HSigma.
func (m *SigmaToHSigmaUnknown) Labels() []fd.Label { return m.labels }

// SubMultisetsContaining enumerates every sub-multiset s ⊆ m with at least
// one instance of id — the h_labels sets of Figures 1 and 2. The count is
// ∏(multᵢ+1) over identifiers, so callers keep memberships small (the
// reductions are about computability, not efficiency; the paper's Fig. 1–2
// build these sets the same way).
func SubMultisetsContaining(m *multiset.Multiset[ident.ID], id ident.ID) []*multiset.Multiset[ident.ID] {
	support := m.Support()
	var out []*multiset.Multiset[ident.ID]
	cur := multiset.New[ident.ID]()
	var rec func(i int)
	rec = func(i int) {
		if i == len(support) {
			if cur.Contains(id) {
				out = append(out, cur.Clone())
			}
			return
		}
		e := support[i]
		maxK := m.Count(e)
		for k := 0; k <= maxK; k++ {
			rec(i + 1)
			if k < maxK {
				cur.Add(e)
			}
		}
		for k := 0; k < maxK; k++ {
			cur.Remove(e)
		}
	}
	rec(0)
	return out
}
