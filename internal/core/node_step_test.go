package core

import (
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stepHarness is the Environment of one sim.Node driven by hand, one event
// at a time: it keeps what the node broadcasts and the timer tags it sets,
// and the test hands them back as arrivals and firings.
type stepHarness struct {
	id     ident.ID
	now    sim.Time
	sent   []any
	timers []int
}

func (h *stepHarness) ID() ident.ID                    { return h.id }
func (h *stepHarness) N() (int, bool)                  { return 0, false }
func (h *stepHarness) Now() sim.Time                   { return h.now }
func (h *stepHarness) Rand() *rand.Rand                { return rand.New(rand.NewSource(1)) }
func (h *stepHarness) Broadcast(payload any)           { h.sent = append(h.sent, payload) }
func (h *stepHarness) SetTimer(_ sim.Time, tag int)    { h.timers = append(h.timers, tag) }
func (h *stepHarness) Snooze(sim.Time, int, sim.Time)  {}
func (h *stepHarness) Note(trace.Kind, string, string) {}
func (h *stepHarness) PID() sim.PID                    { return 0 }
func (h *stepHarness) Changed()                        {}

// last returns the node's latest broadcast with the given tag, still in
// its envelope.
func (h *stepHarness) last(t *testing.T, tag string) any {
	t.Helper()
	for i := len(h.sent) - 1; i >= 0; i-- {
		if h.sent[i].(sim.Tagger).MsgTag() == tag {
			return h.sent[i]
		}
	}
	t.Fatalf("%s never broadcast %s", h.id, tag)
	return nil
}

// countingRule wraps a process's quorum rule and counts what its guards
// do. lookups counts the Phase 1/2 guard evaluations, each one quorum
// lookup. runs counts the guard runs that reached a fixpoint: a step that
// finds nothing more to fire reads the rule's view right after a
// fruitless evaluation, to remember it, while a step the memo ends reads
// it before evaluating anything.
type countingRule struct {
	quorumRule
	lookups, runs int
	fruitless     bool // the last evaluation fired nothing
}

func (r *countingRule) stepPh1() bool { return r.count(r.quorumRule.stepPh1()) }
func (r *countingRule) stepPh2() bool { return r.count(r.quorumRule.stepPh2()) }

func (r *countingRule) count(fired bool) bool {
	r.lookups++
	r.fruitless = !fired
	return fired
}

func (r *countingRule) view() quorumView {
	if r.fruitless {
		r.runs++
	}
	r.fruitless = false
	return r.quorumRule.view()
}

// idleModule is a co-located module that is not a Poller.
type idleModule struct{}

func (idleModule) Init(sim.Environment) {}
func (idleModule) OnMessage(any)        {}
func (idleModule) OnTimer(int)          {}

// pollingModule is a co-located Poller that changes nothing.
type pollingModule struct{ idleModule }

func (pollingModule) Poll() {}

// fig9InPh2 runs a Fig. 9 leader with identifier id, stacked over below,
// to a Phase 2 fixpoint of round 1: its detectors elect it alone, and its
// only quorum is itself, which its own PH1 completes. Its quorum rule is
// wrapped in a countingRule.
func fig9InPh2(t *testing.T, id ident.ID, below sim.Process) (*Fig9, *sim.Node, *stepHarness, *stubHSigma) {
	t.Helper()
	hs := &stubHSigma{
		quora:  []fd.QuorumPair{{Label: "L", M: multiset.From(id)}},
		labels: []fd.Label{"L"},
	}
	c := NewFig9(stubHOmega{fd.LeaderInfo{ID: id, Multiplicity: 1}}, hs, Value("v-"+id))
	c.rule = &countingRule{quorumRule: c}
	h := &stepHarness{id: id}
	node := sim.NewNode().Add("fd", below).Add("consensus", c)
	node.Init(h)
	node.OnMessage(h.last(t, "COORD")) // its own COORD: Phase 0, then PH1
	node.OnMessage(h.last(t, "PH1"))   // its own PH1 completes the quorum: PH2
	if c.phase != inPh2 || c.round != 1 || c.Decided().Decided {
		t.Fatalf("%s at phase %d of round %d, want a Phase 2 fixpoint of round 1", id, c.phase, c.round)
	}
	return c, node, h, hs
}

// TestFig9NodeStepsOncePerOwnEvent counts guard evaluations on a Fig. 9
// node at a Phase 2 fixpoint. A PH1/PH2 arrival writes the reception
// buffer, so the guards run once, to a fixpoint: one quorum lookup. That
// holds over a Poller too: the node then polls the process again after its
// own message, and the poll finds the detector outputs unchanged, so the
// step memo ends it before any guard. An idle heartbeat evaluates nothing
// for the same reason. A heartbeat after the HΣ detector replaced its
// h_labels runs the guards once: the sub-round advance fires, and the
// lookup after it finds the new fixpoint at sub-round 2.
func TestFig9NodeStepsOncePerOwnEvent(t *testing.T) {
	for _, c := range []struct {
		name  string
		below sim.Process
	}{
		{"over a non-Poller", idleModule{}},
		{"over a Poller", pollingModule{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, qh, _ := fig9InPh2(t, "q", idleModule{})
			p, node, h, hs := fig9InPh2(t, "p", c.below)
			counts := p.rule.(*countingRule)
			tick := func() {
				h.now += heartbeat
				node.OnTimer(h.timers[len(h.timers)-1])
			}
			events := []struct {
				name          string
				fire          func()
				runs, lookups int
				sr            int
			}{
				{"q's PH1", func() { node.OnMessage(qh.last(t, "PH1")) }, 1, 1, 1},
				{"q's PH2", func() { node.OnMessage(qh.last(t, "PH2")) }, 1, 1, 1},
				{"an idle heartbeat", tick, 0, 0, 1},
				{"a second idle heartbeat", tick, 0, 0, 1},
				{"a heartbeat after h_labels were replaced", func() {
					hs.labels = []fd.Label{"L", "M"}
					tick()
				}, 1, 2, 2},
				{"the idle heartbeat after it", tick, 0, 0, 2},
			}
			for _, e := range events {
				runs, lookups := counts.runs, counts.lookups
				e.fire()
				if got := counts.runs - runs; got != e.runs {
					t.Errorf("%s: %d guard runs, want %d", e.name, got, e.runs)
				}
				if got := counts.lookups - lookups; got != e.lookups {
					t.Errorf("%s: %d quorum lookups, want %d", e.name, got, e.lookups)
				}
				if p.phase != inPh2 || p.round != 1 || p.subRound() != e.sr {
					t.Fatalf("%s: p at phase %d, round %d, sub-round %d; want Phase 2 of round 1, sub-round %d", e.name, p.phase, p.round, p.subRound(), e.sr)
				}
			}
		})
	}
}

// TestFig9StaleTimerReevaluatesGuards: a heartbeat of a pre-outage epoch
// does not re-arm, but it is a step like any other. Time has passed since
// the last one, and here the detector's h_labels grew meanwhile, so the
// stale firing must move the process to sub-round 2. The node does not
// re-poll the module whose timer fired, so nothing else would.
func TestFig9StaleTimerReevaluatesGuards(t *testing.T) {
	p, node, h, hs := fig9InPh2(t, "p", idleModule{})
	stale := h.timers[0]
	node.OnRecover() // epoch 1: a fresh heartbeat chain, (REJOIN, 1)
	armed := len(h.timers)
	hs.labels = []fd.Label{"L", "M"}
	h.now += heartbeat
	node.OnTimer(stale)
	if p.subRound() != 2 {
		t.Errorf("after a stale heartbeat with grown h_labels, sub-round %d, want 2", p.subRound())
	}
	if len(h.timers) != armed {
		t.Errorf("stale heartbeat re-armed the timer chain: %d timers set, want %d", len(h.timers), armed)
	}
}

// TestFig9IdleStepsAllocateNothing pins the cost of a Fig. 9 process at a
// fixpoint over a reduction stack: HΣ from Lemma 3 (AP → HΣ, a sampling
// module that is a Poller) with an HΩ oracle, the process alone in an
// anonymous system and driven to its Phase 2 fixpoint of round 1. An idle
// segment — the process's heartbeat, then the sampler's tick, which polls
// it — allocates nothing: the step memo reads h_labels and h_quora by
// identity, and the stack hands out its own slices.
func TestFig9IdleStepsAllocateNothing(t *testing.T) {
	world := oracle.NewWorld(fd.NewGroundTruth(ident.AnonymousN(1), nil), 0)
	node := sim.NewNode()
	hs := reduce.StackLemma3(world, node)
	ho := oracle.NewHOmega(world, oracle.AdversaryNone)
	c := NewFig9(ho, hs, "v")
	node.Add("homega", ho).Add("consensus", c)
	h := &stepHarness{id: ident.Anonymous}
	node.Init(h)
	sampler, beat := h.timers[0], h.timers[1] // Lemma 3's poll timer, then the heartbeat
	node.OnMessage(h.last(t, "COORD"))        // its own COORD: Phase 0, then PH1
	node.OnMessage(h.last(t, "PH1"))          // its own PH1 matches (⊥^1, ⊥^1): PH2
	if c.phase != inPh2 || c.round != 1 || c.Decided().Decided {
		t.Fatalf("at phase %d of round %d, want a Phase 2 fixpoint of round 1", c.phase, c.round)
	}
	sent := len(h.sent)
	allocs := testing.AllocsPerRun(100, func() {
		h.timers = h.timers[:0]
		h.now += heartbeat
		node.OnTimer(beat)
		node.OnTimer(sampler)
	})
	if allocs != 0 {
		t.Errorf("an idle heartbeat-plus-poll segment allocates %v times, want 0", allocs)
	}
	if c.phase != inPh2 || c.round != 1 || c.subRound() != 1 || len(h.sent) != sent {
		t.Errorf("idle segments moved the process (phase %d, round %d, sub-round %d, %d broadcasts)", c.phase, c.round, c.subRound(), len(h.sent)-sent)
	}
}
