package reduce

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// This file holds the communication-free ("local") transformations: each
// one periodically samples its source detector and maintains the target
// class's variables in memory. They run as node modules so that sampling
// is driven by the node's event flow plus a low-rate timer, and they
// accumulate state where the target class demands monotone outputs.

// localSampler factors the Init/OnTimer/Poll plumbing shared by the local
// transformations.
type localSampler struct {
	env    sim.Environment
	sample func()
}

func (l *localSampler) start(env sim.Environment, sample func()) {
	l.env = env
	l.sample = sample
	sample()
	env.SetTimer(DefaultPollInterval, 0)
}

// OnTimer implements sim.Process.
func (l *localSampler) OnTimer(tag int) {
	l.sample()
	l.env.SetTimer(DefaultPollInterval, tag)
}

// OnMessage implements sim.Process. Local transformations receive nothing
// of their own, but a handler must end where Poll would (sim.Poller), so
// it samples like one.
func (l *localSampler) OnMessage(any) { l.Poll() }

// Poll implements sim.Poller: re-sample whenever anything happened on the
// node, so output transitions are observed at the same event they become
// possible.
func (l *localSampler) Poll() {
	if l.sample != nil {
		l.sample()
	}
}

// DiamondHPbarToHOmega is Observation 1: a failure detector of class HΩ
// obtained from any detector of class ◇HP̄ without communication, by
// electing the smallest trusted identifier with its multiplicity.
type DiamondHPbarToHOmega struct {
	localSampler
	source fd.DiamondHPbar
	out    fd.LeaderInfo
	hasOut bool
}

var (
	_ sim.Process = (*DiamondHPbarToHOmega)(nil)
	_ fd.HOmega   = (*DiamondHPbarToHOmega)(nil)
)

// NewDiamondHPbarToHOmega builds the Observation 1 transformer.
func NewDiamondHPbarToHOmega(source fd.DiamondHPbar) *DiamondHPbarToHOmega {
	return &DiamondHPbarToHOmega{source: source}
}

// Init implements sim.Process.
func (m *DiamondHPbarToHOmega) Init(env sim.Environment) {
	m.start(env, func() {
		trusted := m.source.Trusted()
		if id, ok := trusted.Min(); ok {
			m.out = fd.LeaderInfo{ID: id, Multiplicity: trusted.Count(id)}
			m.hasOut = true
		}
	})
}

// Leader implements fd.HOmega.
func (m *DiamondHPbarToHOmega) Leader() (fd.LeaderInfo, bool) { return m.out, m.hasOut }

// APToDiamondHPbar is Lemma 2: ◇HP̄ obtained from any detector of class
// AP in an anonymous system without communication — h_trusted is a
// multiset of D.anap default identifiers ⊥.
type APToDiamondHPbar struct {
	localSampler
	source fd.AP
	count  int
}

var (
	_ sim.Process     = (*APToDiamondHPbar)(nil)
	_ fd.DiamondHPbar = (*APToDiamondHPbar)(nil)
)

// NewAPToDiamondHPbar builds the Lemma 2 transformer.
func NewAPToDiamondHPbar(source fd.AP) *APToDiamondHPbar {
	return &APToDiamondHPbar{source: source}
}

// Init implements sim.Process.
func (m *APToDiamondHPbar) Init(env sim.Environment) {
	m.start(env, func() { m.count = m.source.AliveCount() })
}

// Trusted implements fd.DiamondHPbar: ⊥^anap.
func (m *APToDiamondHPbar) Trusted() *multiset.Multiset[ident.ID] {
	out := multiset.New[ident.ID]()
	out.AddN(ident.Anonymous, m.count)
	return out
}

// APToHSigma is Lemma 3: HΣ obtained from any detector of class AP in an
// anonymous system without communication. After reading y from D.anap the
// label ⊥^y joins h_labels and the pair (⊥^y, ⊥^y) joins h_quora; both
// accumulate, satisfying monotonicity, and AP's safety yields HΣ's (nested
// sub-populations always intersect).
type APToHSigma struct {
	localSampler
	source fd.AP
	seen   map[int]bool
	labels []fd.Label
	quora  []fd.QuorumPair
}

var (
	_ sim.Process = (*APToHSigma)(nil)
	_ fd.HSigma   = (*APToHSigma)(nil)
)

// NewAPToHSigma builds the Lemma 3 transformer.
func NewAPToHSigma(source fd.AP) *APToHSigma {
	return &APToHSigma{source: source, seen: make(map[int]bool)}
}

// Init implements sim.Process.
func (m *APToHSigma) Init(env sim.Environment) {
	m.start(env, func() {
		y := m.source.AliveCount()
		if y <= 0 || m.seen[y] {
			return
		}
		m.seen[y] = true
		bot := multiset.New[ident.ID]()
		bot.AddN(ident.Anonymous, y)
		label := fd.Label(fmt.Sprintf("⊥^%d", y))
		m.labels = append(m.labels, label)
		m.quora = append(m.quora, fd.QuorumPair{Label: label, M: bot})
	})
}

// Quora implements fd.HSigma.
func (m *APToHSigma) Quora() []fd.QuorumPair { return m.quora }

// Labels implements fd.HSigma.
func (m *APToHSigma) Labels() []fd.Label { return m.labels }

// ASigmaToHSigma is Theorem 3: HΣ obtained from any detector of class AΣ
// in an anonymous system without communication. Each pair (x, y) of
// D.a_sigma contributes label x to h_labels and the pair (x, ⊥^y) to
// h_quora, replacing any earlier pair with label x (AΣ monotonicity only
// lets y shrink, so replacement is monotone for HΣ).
type ASigmaToHSigma struct {
	localSampler
	source fd.ASigma
	pairs  map[fd.Label]int // label -> current y
	order  []fd.Label
	quora  []fd.QuorumPair // rebuilt, as a fresh slice, when a pair changes
}

var (
	_ sim.Process = (*ASigmaToHSigma)(nil)
	_ fd.HSigma   = (*ASigmaToHSigma)(nil)
)

// NewASigmaToHSigma builds the Theorem 3 transformer.
func NewASigmaToHSigma(source fd.ASigma) *ASigmaToHSigma {
	return &ASigmaToHSigma{source: source, pairs: make(map[fd.Label]int)}
}

// Init implements sim.Process.
func (m *ASigmaToHSigma) Init(env sim.Environment) {
	m.start(env, func() {
		changed := false
		for _, pair := range m.source.ASigma() {
			y, ok := m.pairs[pair.Label]
			if !ok {
				m.order = append(m.order, pair.Label)
			}
			if !ok || y != pair.Y {
				m.pairs[pair.Label] = pair.Y
				changed = true
			}
		}
		if changed {
			m.quora = make([]fd.QuorumPair, 0, len(m.order))
			for _, label := range m.order {
				bot := multiset.New[ident.ID]()
				bot.AddN(ident.Anonymous, m.pairs[label])
				m.quora = append(m.quora, fd.QuorumPair{Label: label, M: bot})
			}
		}
	})
}

// Quora implements fd.HSigma.
func (m *ASigmaToHSigma) Quora() []fd.QuorumPair { return m.quora }

// Labels implements fd.HSigma.
func (m *ASigmaToHSigma) Labels() []fd.Label { return m.order }
