package core

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/sim"
)

// Ph1Msg is Fig. 8's Phase 1 message (PH1, r, est1).
type Ph1Msg struct {
	Round int
	Est   Value
}

// MsgTag implements sim.Tagger.
func (Ph1Msg) MsgTag() string { return "PH1" }

// Ph2Msg is Fig. 8's Phase 2 message (PH2, r, est2); Est may be Bottom.
type Ph2Msg struct {
	Round int
	Est   Value
}

// MsgTag implements sim.Tagger.
func (Ph2Msg) MsgTag() string { return "PH2" }

// Fig8 is the per-process consensus instance for HAS[t < n/2, HΩ]
// (Figure 8, Theorem 7). It requires the engine to expose n (KnownN) and a
// bound t < n/2 on the number of faulty processes. Attach it to a node
// together with its HΩ detector module so that detector output changes
// re-evaluate the phase guards.
//
// The round structure is the embedded skeleton's; what is Fig. 8's own is
// the quorum rule of Phases 1–2: count n−t messages (or α of them).
type Fig8 struct {
	skeleton
	t int
	n int

	// alpha, when positive, replaces the knowledge of n per the paper's
	// footnote 5: quorums wait for α messages and a value is adopted when
	// α copies of it arrived. Requires α > n/2 and ≥ α correct processes.
	alpha int

	// PH1/PH2 estimates by round, one entry per received copy.
	ph1 map[int][]Value
	ph2 map[int][]Value
}

var (
	_ sim.Process   = (*Fig8)(nil)
	_ sim.Poller    = (*Fig8)(nil)
	_ sim.Recoverer = (*Fig8)(nil)
)

// NewFig8 creates a consensus instance proposing the given value, using
// detector d ∈ HΩ and tolerating up to t crashes.
func NewFig8(d fd.HOmega, t int, proposal Value) *Fig8 {
	c := &Fig8{t: t, ph1: make(map[int][]Value), ph2: make(map[int][]Value)}
	c.skeleton = newSkeleton(c, proposal)
	c.hOmega = d
	return c
}

// NewFig8NoCoordination creates the ABLATED variant without the Leaders'
// Coordination Phase — the algorithm one would get by using the anonymous
// protocol of [4] with HΩ naively. Safety (validity/agreement) still holds
// (it rests on the Phase 1/2 majority quorums alone), but with several
// homonymous leaders pushing different estimates the termination argument
// of Lemma 7 breaks: rounds can loop on split Phase-0 adoptions. The
// ablation experiment (E14) quantifies this; SetMaxRounds bounds runs.
func NewFig8NoCoordination(d fd.HOmega, t int, proposal Value) *Fig8 {
	c := NewFig8(d, t, proposal)
	c.skipCoord = true
	return c
}

// NewFig8Alpha creates the footnote-5 variant: the knowledge of n is
// replaced by a parameter α such that α > n/2 and, in every execution, at
// least α processes are correct. Quorum waits collect α messages and a
// value is adopted when α equal copies arrived — any two α-quorums
// intersect, so the Phase 1/2 safety argument is unchanged, and with ≥ α
// correct senders the waits terminate. The instance never queries
// Environment.N, so it runs with completely unknown membership size.
func NewFig8Alpha(d fd.HOmega, alpha int, proposal Value) *Fig8 {
	if alpha < 1 {
		panic(fmt.Sprintf("core: Fig8Alpha requires alpha >= 1, got %d", alpha))
	}
	c := NewFig8(d, 0, proposal)
	c.alpha = alpha
	return c
}

// Init implements sim.Process: check the system model, then propose(v).
func (c *Fig8) Init(env sim.Environment) {
	if c.alpha == 0 {
		n, known := env.N()
		if !known {
			panic("core: Fig8 requires HAS[t<n/2] with n known (sim.Config.KnownN), or the α variant")
		}
		if c.t < 0 || 2*c.t >= n {
			panic(fmt.Sprintf("core: Fig8 requires t < n/2, got t=%d n=%d", c.t, n))
		}
		c.n = n
	}
	c.skeleton.Init(env)
}

// quorumSize is the number of messages Phases 1–2 wait for: n−t with
// known n, α in the footnote-5 variant.
func (c *Fig8) quorumSize() int {
	if c.alpha > 0 {
		return c.alpha
	}
	return c.n - c.t
}

// adopted reports whether a value with the given tally is adopted as est2:
// more than n/2 copies with known n, at least α copies in the α variant.
func (c *Fig8) adopted(count int) bool {
	if c.alpha > 0 {
		return count >= c.alpha
	}
	return 2*count > c.n
}

func (c *Fig8) enterPh1() { c.env.Broadcast(Ph1Msg{Round: c.round, Est: c.est1}) }

// stepPh1 is Phase 1 (lines 20–26): wait for n−t estimates; a value seen
// more than n/2 times becomes est2, otherwise est2 = ⊥.
func (c *Fig8) stepPh1() bool {
	got := c.ph1[c.round]
	if len(got) < c.quorumSize() {
		return false
	}
	c.est2 = Bottom
	counts := make(map[Value]int, len(got))
	for _, v := range got {
		counts[v]++
		if c.adopted(counts[v]) {
			c.est2 = v
		}
	}
	c.env.Broadcast(Ph2Msg{Round: c.round, Est: c.est2})
	c.phase = inPh2
	return true
}

// stepPh2 is Phase 2 (lines 28–34): wait for n−t est2 values.
func (c *Fig8) stepPh2() bool {
	got := c.ph2[c.round]
	if len(got) < c.quorumSize() {
		return false
	}
	c.closePh2(got)
	return true
}

func (c *Fig8) buffer(payload any) (int, Value) {
	switch m := payload.(type) {
	case Ph1Msg:
		if m.Round >= c.round {
			c.ph1[m.Round] = append(c.ph1[m.Round], m.Est)
		}
		return m.Round, m.Est
	case Ph2Msg:
		if m.Round >= c.round {
			c.ph2[m.Round] = append(c.ph2[m.Round], m.Est)
		}
		return m.Round, m.Est
	}
	return 0, Bottom
}

func (c *Fig8) forget(round int) {
	delete(c.ph1, round)
	delete(c.ph2, round)
}

func (c *Fig8) subRound() int { return 0 }

func (c *Fig8) followAck(RejoinAckMsg) {}
