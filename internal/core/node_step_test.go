package core

import (
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
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
func (h *stepHarness) Note(trace.Kind, string, string) {}
func (h *stepHarness) PID() sim.PID                    { return 0 }

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

// countingHSigma counts Labels calls. A Fig. 9 process at a Phase 2
// fixpoint reads h_labels exactly once per step — advanceSubRound's guard,
// the last one evaluated — so the count is the number of step entries.
type countingHSigma struct {
	stubHSigma
	labelCalls int
}

func (s *countingHSigma) Labels() []fd.Label { s.labelCalls++; return s.labels }

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
// only quorum is itself, which its own PH1 completes.
func fig9InPh2(t *testing.T, id ident.ID, below sim.Process) (*Fig9, *sim.Node, *stepHarness, *countingHSigma) {
	t.Helper()
	hs := &countingHSigma{stubHSigma: stubHSigma{
		quora:  []fd.QuorumPair{{Label: "L", M: multiset.From(id)}},
		labels: []fd.Label{"L"},
	}}
	c := NewFig9(stubHOmega{fd.LeaderInfo{ID: id, Multiplicity: 1}}, hs, Value("v-"+id))
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

// TestFig9NodeStepsOncePerOwnEvent counts step entries on a Fig. 9 node
// at a fixpoint: one per heartbeat and per PH1/PH2 arrival when nothing
// below it is a Poller (the node's poll would repeat the step the handler
// just ran, so it is skipped), two when a Poller below may have moved its
// guards. Before the node skipped that poll it was two in both cases.
func TestFig9NodeStepsOncePerOwnEvent(t *testing.T) {
	for _, c := range []struct {
		name  string
		below sim.Process
		want  int
	}{
		{"over a non-Poller", idleModule{}, 1},
		{"over a Poller", pollingModule{}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, qh, _ := fig9InPh2(t, "q", idleModule{})
			p, node, h, hs := fig9InPh2(t, "p", c.below)
			events := []struct {
				name string
				fire func()
			}{
				{"q's PH1", func() { node.OnMessage(qh.last(t, "PH1")) }},
				{"q's PH2", func() { node.OnMessage(qh.last(t, "PH2")) }},
				{"heartbeat", func() { node.OnTimer(h.timers[len(h.timers)-1]) }},
				{"a second heartbeat", func() { node.OnTimer(h.timers[len(h.timers)-1]) }},
			}
			for _, e := range events {
				before := hs.labelCalls
				e.fire()
				if got := hs.labelCalls - before; got != c.want {
					t.Errorf("%s: %d step entries, want %d", e.name, got, c.want)
				}
				if p.phase != inPh2 || p.round != 1 || p.subRound() != 1 {
					t.Fatalf("%s moved p off its fixpoint (phase %d, round %d, sub-round %d)", e.name, p.phase, p.round, p.subRound())
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
