package reduce

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// HSigmaToSigma is Figure 4 (Theorem 2): transforming a detector D ∈ HΣ
// into a detector of class Σ in an asynchronous system with unique
// identifiers, without initial knowledge of the membership. It uses an
// auxiliary detector X of class 𝔈 (the alive list of Figure 3 /
// Definition 1).
//
//   - Task T1 (repeat forever): broadcast (LABELS, id(p), D.h_labels); if
//     some pair (x, m) ∈ D.h_quora has every identifier of m known to hold
//     the label x (via idents[x]), pick among such candidate multisets the
//     one whose worst identifier rank in X.alive is smallest and output it
//     as trusted.
//   - Task T2: upon (LABELS, i, ℓ), record that identifier i holds every
//     label of ℓ: idents[x] ∪= {i}.
//
// Safety of the emulated Σ follows from HΣ safety plus the idents guard;
// liveness from HΣ liveness plus the 𝔈 ranking, which eventually prefers
// all-correct candidates (see the paper's proof of Theorem 2).
type HSigmaToSigma struct {
	env    sim.Environment
	source fd.HSigma
	alive  fd.AliveList

	idents  map[fd.Label]*multiset.Multiset[ident.ID]
	trusted *multiset.Multiset[ident.ID]
	hasOut  bool
}

// LabelsMsg is Figure 4's (LABELS, id, labels) message.
type LabelsMsg struct {
	ID     ident.ID
	Labels []fd.Label
}

// MsgTag implements sim.Tagger.
func (LabelsMsg) MsgTag() string { return "LABELS" }

var (
	_ sim.Process = (*HSigmaToSigma)(nil)
	_ fd.Sigma    = (*HSigmaToSigma)(nil)
)

// NewHSigmaToSigma builds the Figure 4 transformer from the HΣ source D
// and the 𝔈 detector X.
func NewHSigmaToSigma(source fd.HSigma, alive fd.AliveList) *HSigmaToSigma {
	return &HSigmaToSigma{
		source: source,
		alive:  alive,
		idents: make(map[fd.Label]*multiset.Multiset[ident.ID]),
	}
}

// Init implements sim.Process.
func (m *HSigmaToSigma) Init(env sim.Environment) {
	m.env = env
	m.iterate()
	env.SetTimer(DefaultPollInterval, 0)
}

// OnTimer implements sim.Process (Task T1).
func (m *HSigmaToSigma) OnTimer(tag int) {
	m.iterate()
	m.env.SetTimer(DefaultPollInterval, tag)
}

func (m *HSigmaToSigma) iterate() {
	m.env.Broadcast(LabelsMsg{ID: m.env.ID(), Labels: m.source.Labels()})

	aliveList := m.alive.Alive()
	var best *multiset.Multiset[ident.ID]
	bestRank := 0
	for _, pair := range m.source.Quora() {
		known, ok := m.idents[pair.Label]
		if !ok || !pair.M.SubsetOf(known) {
			continue
		}
		r := fd.MaxRank(pair.M.Elems(), aliveList)
		if best == nil || r < bestRank {
			best, bestRank = pair.M, r
		}
	}
	if best != nil {
		m.trusted = best.Clone()
		m.hasOut = true
	}
}

// OnMessage implements sim.Process (Task T2).
func (m *HSigmaToSigma) OnMessage(payload any) {
	msg, ok := payload.(LabelsMsg)
	if !ok {
		return
	}
	for _, x := range msg.Labels {
		set, ok := m.idents[x]
		if !ok {
			set = multiset.New[ident.ID]()
			m.idents[x] = set
		}
		if !set.Contains(msg.ID) {
			set.Add(msg.ID)
		}
	}
}

// TrustedQuorum implements fd.Sigma: the trusted multiset, shared and not
// copied (iterate replaces it wholesale). Before the first candidate
// appears it returns nil; HasOutput distinguishes that state for probes.
func (m *HSigmaToSigma) TrustedQuorum() *multiset.Multiset[ident.ID] {
	if !m.hasOut {
		return nil
	}
	return m.trusted
}

// HasOutput reports whether a trusted quorum has been produced yet.
func (m *HSigmaToSigma) HasOutput() bool { return m.hasOut }
