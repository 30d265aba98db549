package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// lowerMod broadcasts a PING at init and exposes how many PINGs it saw.
type lowerMod struct {
	env   Environment
	pings int
}

type ping struct{}

func (ping) MsgTag() string { return "PING" }

func (m *lowerMod) Init(env Environment) { m.env = env; env.Broadcast(ping{}) }
func (m *lowerMod) OnMessage(any)        { m.pings++ }
func (m *lowerMod) OnTimer(int)          {}

// upperMod observes the lower module's state via shared memory and records
// Poll invocations; it also exchanges its own QUERY messages.
type upperMod struct {
	env     Environment
	lower   *lowerMod
	queries int
	polls   int
	sawPing bool
}

type query struct{}

func (query) MsgTag() string { return "QUERY" }

func (m *upperMod) Init(env Environment) { m.env = env; env.Broadcast(query{}) }
func (m *upperMod) OnMessage(any)        { m.queries++ }
func (m *upperMod) OnTimer(int)          {}
func (m *upperMod) Poll() {
	m.polls++
	if m.lower.pings > 0 {
		m.sawPing = true
	}
}

func TestNodeModulesAreNamespaced(t *testing.T) {
	n := 3
	eng := New(Config{IDs: ident.Unique(n), Net: Timely{Delta: 1}, Seed: 1})
	lowers := make([]*lowerMod, n)
	uppers := make([]*upperMod, n)
	for i := 0; i < n; i++ {
		lowers[i] = &lowerMod{}
		uppers[i] = &upperMod{lower: lowers[i]}
		node := NewNode().Add("fd", lowers[i]).Add("cons", uppers[i])
		eng.AddProcess(node)
	}
	eng.Run(50)
	for i := 0; i < n; i++ {
		if lowers[i].pings != n {
			t.Errorf("node %d lower got %d PINGs, want %d", i, lowers[i].pings, n)
		}
		if uppers[i].queries != n {
			t.Errorf("node %d upper got %d QUERYs, want %d", i, uppers[i].queries, n)
		}
		if !uppers[i].sawPing {
			t.Errorf("node %d upper never observed lower state via Poll", i)
		}
		if uppers[i].polls == 0 {
			t.Errorf("node %d upper was never polled", i)
		}
	}
}

func TestNodeTimerDemux(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(1), Seed: 1})
	a, b := &tickMod{delay: 3, tag: 5}, &tickMod{delay: 7, tag: 9}
	eng.AddProcess(NewNode().Add("a", a).Add("b", b))
	eng.Run(20)
	if len(a.fired) == 0 || a.fired[0] != 5 {
		t.Errorf("module a timer tags = %v, want leading 5", a.fired)
	}
	if len(b.fired) == 0 || b.fired[0] != 9 {
		t.Errorf("module b timer tags = %v, want leading 9", b.fired)
	}
}

type tickMod struct {
	env   Environment
	delay Time
	tag   int
	fired []int
}

func (m *tickMod) Init(env Environment) { m.env = env; env.SetTimer(m.delay, m.tag) }
func (m *tickMod) OnMessage(any)        {}
func (m *tickMod) OnTimer(tag int) {
	m.fired = append(m.fired, tag)
	m.env.SetTimer(m.delay, m.tag)
}

func TestNodeDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate module name should panic")
		}
	}()
	NewNode().Add("x", &lowerMod{}).Add("x", &lowerMod{})
}

func TestBareProcessAndNodeInterop(t *testing.T) {
	// An envelope-less payload from a bare process reaches node modules.
	eng := New(Config{IDs: ident.Unique(2), Net: Timely{Delta: 1}, Seed: 2})
	bare := &echoProc{}
	lower := &lowerMod{}
	eng.AddProcess(bare)
	eng.AddProcess(NewNode().Add("fd", lower))
	eng.Run(20)
	// bare broadcasts hello{} unwrapped: the node fans it to all modules.
	if lower.pings != 2 {
		// lower sees: its own PING envelope + unwrapped hello = 2 OnMessage calls.
		t.Errorf("lower OnMessage count = %d, want 2", lower.pings)
	}
}

// stackMsg is what the modules of a random stack broadcast. A reply is
// never answered, which keeps traffic from growing without bound.
type stackMsg struct {
	From  ident.ID
	N     int
	Reply bool
}

func (stackMsg) MsgTag() string { return "STACK" }

// stackMod is a module of a random node stack that is not a Poller: it
// counts what it handles, broadcasts on a periodic tick, and replies to
// every `every`-th message that is not a reply. Standing alone it is a
// bare process whose broadcasts reach nodes unwrapped.
type stackMod struct {
	env    Environment
	count  int  // messages and timers handled, plus guard firings: what guards read
	period Time // 0 = no periodic tick
	every  int  // 0 = never replies
}

func (m *stackMod) Init(env Environment) {
	m.env = env
	env.Broadcast(stackMsg{From: env.ID()})
	m.arm()
}

func (m *stackMod) arm() {
	if m.period > 0 {
		m.env.SetTimer(m.period, 0)
	}
}

func (m *stackMod) OnMessage(payload any) {
	m.count++
	if msg, ok := payload.(stackMsg); ok && !msg.Reply && m.every > 0 && m.count%m.every == 0 {
		m.env.Broadcast(stackMsg{From: m.env.ID(), N: m.count, Reply: true})
	}
}

// OnTimer ticks on tag 0 and re-arms it; other tags are one-shot.
func (m *stackMod) OnTimer(tag int) {
	m.count++
	if tag == 0 {
		m.env.Broadcast(stackMsg{From: m.env.ID(), N: m.count})
		m.arm()
	}
}

func (m *stackMod) OnRecover() { m.arm() }

func (m *stackMod) state() string { return fmt.Sprintf("count=%d", m.count) }
func (m *stackMod) polled() int   { return 0 }

// guardMod is a Poller: its guard reads another module's counter and
// fires once per `step` it grows. Each firing bumps the module's own
// counter, so guards can chase one another through a node, and then
// broadcasts (every fourth firing), sets a one-shot timer, or writes a
// note. Every handler ends at the guard's fixpoint, as the Poller contract
// asks; polls counts Poll calls and is not part of the observable state.
type guardMod struct {
	stackMod
	watch *int
	step  int
	act   int
	fired int
	polls int
}

func (g *guardMod) guard() {
	for *g.watch >= g.step*(g.fired+1) {
		g.fired++
		g.count++
		switch g.act {
		case 0:
			if g.fired%4 == 1 {
				g.env.Broadcast(stackMsg{From: g.env.ID(), N: -g.fired, Reply: true})
			}
		case 1:
			g.env.SetTimer(Time(1+g.fired%3), 1)
		default:
			g.env.Note(trace.KindNote, "GUARD", fmt.Sprint(g.fired))
		}
	}
}

func (g *guardMod) Init(env Environment) { g.stackMod.Init(env); g.guard() }
func (g *guardMod) OnMessage(p any)      { g.stackMod.OnMessage(p); g.guard() }
func (g *guardMod) OnTimer(tag int)      { g.stackMod.OnTimer(tag); g.guard() }
func (g *guardMod) OnRecover()           { g.stackMod.OnRecover(); g.guard() }
func (g *guardMod) Poll()                { g.polls++; g.guard() }
func (g *guardMod) state() string        { return fmt.Sprintf("count=%d fired=%d", g.count, g.fired) }
func (g *guardMod) polled() int          { return g.polls }

type stackModule interface {
	Process
	state() string
	polled() int
}

// nodeOutcome is what one run of a random deployment leaves behind.
type nodeOutcome struct {
	digest string // sha256 of the trace text and every module's final state
	polls  int    // Poll calls, summed over every guard
	fired  int    // guard firings, summed over every guard
	events int
}

// runNodeCase builds seed's random deployment — a bare process plus 2–4
// nodes, each a random stack of up to four modules under names drawn from
// one pool (so some envelopes name a module the receiving node does not
// run), a crash with recovery — on production nodes or on refNode, and
// runs it.
func runNodeCase(seed int64, ref bool) nodeOutcome {
	rng := rand.New(rand.NewSource(seed))
	procs := 2 + rng.Intn(3)
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ident.Balanced(procs+1, 2), Net: Async{MaxDelay: 1 + Time(rng.Intn(5))}, Seed: seed, Recorder: rec, MaxEvents: 50000})
	mods := []stackModule{&stackMod{period: Time(5 + rng.Intn(5))}}
	eng.AddProcess(mods[0])
	names := []string{"m0", "m1", "m2", "m3"}
	for p := 0; p < procs; p++ {
		order := rng.Perm(len(names))[:1+rng.Intn(len(names))]
		stack := make([]stackModule, len(order))
		counters := make([]*int, len(order))
		for i := range order {
			base := stackMod{period: Time(rng.Intn(2) * (3 + rng.Intn(6))), every: rng.Intn(4)}
			if rng.Intn(2) == 0 {
				m := &base
				stack[i], counters[i] = m, &m.count
				continue
			}
			g := &guardMod{stackMod: base, step: 2 + rng.Intn(3), act: rng.Intn(3)}
			stack[i], counters[i] = g, &g.count
		}
		// A guard reads any other module of its node, above or below it.
		for i, m := range stack {
			g, ok := m.(*guardMod)
			if !ok {
				continue
			}
			g.watch = new(int)
			if len(stack) > 1 {
				g.watch = counters[(i+1+rng.Intn(len(stack)-1))%len(stack)]
			}
		}
		mods = append(mods, stack...)
		if ref {
			n := newRefNode()
			for i, m := range stack {
				n.Add(names[order[i]], m)
			}
			eng.AddProcess(n)
		} else {
			n := NewNode()
			for i, m := range stack {
				n.Add(names[order[i]], m)
			}
			eng.AddProcess(n)
		}
	}
	crash := PID(1 + rng.Intn(procs))
	eng.CrashAt(crash, Time(5+rng.Intn(10)))
	eng.RecoverAt(crash, Time(20+rng.Intn(10)))
	eng.Run(40)

	var b bytes.Buffer
	if err := trace.WriteText(&b, rec.Events()); err != nil {
		panic(err)
	}
	out := nodeOutcome{events: eng.Processed()}
	for i, m := range mods {
		fmt.Fprintf(&b, "module %d: %s\n", i, m.state())
		out.polls += m.polled()
		if g, ok := m.(*guardMod); ok {
			out.fired += g.fired
		}
	}
	fmt.Fprintf(&b, "processed=%d stopped=%v\n", eng.Processed(), eng.Stopped())
	out.digest = fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	return out
}

// TestNodeMatchesReference holds Node to refNode, which polls every Poller
// after every event: on 2,000 random deployments the two must leave the
// same trace and the same module states, while Node makes fewer polls.
func TestNodeMatchesReference(t *testing.T) {
	const cases = 2000
	var refPolls, polls, fired, events int
	for seed := int64(1); seed <= cases; seed++ {
		want, got := runNodeCase(seed, true), runNodeCase(seed, false)
		if got.digest != want.digest {
			t.Fatalf("seed %d: Node and refNode diverge (digest %.12s, reference %.12s)", seed, got.digest, want.digest)
		}
		refPolls, polls, fired, events = refPolls+want.polls, polls+got.polls, fired+got.fired, events+got.events
	}
	t.Logf("%d cases, %d events, %d guard firings, %d polls (reference %d)", cases, events, fired, polls, refPolls)
	// The differential is vacuous unless guards fire and polls are skipped.
	if fired < cases || polls >= refPolls {
		t.Errorf("%d guard firings, %d polls vs the reference's %d: the generator exercises nothing", fired, polls, refPolls)
	}
}

// countPoller is a Poller that only counts its polls.
type countPoller struct {
	stackMod
	polls int
}

func (c *countPoller) Poll() { c.polls++ }

// nopEnv is the Environment a node is driven with directly, one event at a
// time, in the unit cases below.
type nopEnv struct{}

func (nopEnv) ID() ident.ID                    { return "p" }
func (nopEnv) N() (int, bool)                  { return 1, true }
func (nopEnv) Now() Time                       { return 0 }
func (nopEnv) Rand() *rand.Rand                { return rand.New(rand.NewSource(1)) }
func (nopEnv) Broadcast(any)                   {}
func (nopEnv) SetTimer(Time, int)              {}
func (nopEnv) Note(trace.Kind, string, string) {}
func (nopEnv) PID() PID                        { return 0 }

// TestNodePollsAfterEvents pins which Pollers a node polls after each kind
// of event: not the module whose own message or timer it was unless a
// Poller precedes it, every other Poller always, and every Poller after
// Init, OnRecover, an unwrapped payload or an envelope for no module.
func TestNodePollsAfterEvents(t *testing.T) {
	lower, a, b := &stackMod{}, &countPoller{}, &countPoller{}
	// Module order: lower (no Poller), a, b; timer tags are tag*3+index.
	n := NewNode().Add("lower", lower).Add("a", a).Add("b", b)
	cases := []struct {
		name   string
		event  func()
		da, db int
	}{
		{"Init", func() { n.Init(nopEnv{}) }, 1, 1},
		{"message to a lower non-Poller", func() { n.OnMessage(envelope{Module: "lower", Payload: ping{}}) }, 1, 1},
		{"timer of a lower non-Poller", func() { n.OnTimer(0) }, 1, 1},
		{"message to the first Poller", func() { n.OnMessage(envelope{Module: "a", Payload: ping{}}) }, 0, 1},
		{"timer of the first Poller", func() { n.OnTimer(3 + 1) }, 0, 1},
		{"message to a Poller preceded by one", func() { n.OnMessage(envelope{Module: "b", Payload: ping{}}) }, 1, 1},
		{"timer of a Poller preceded by one", func() { n.OnTimer(2) }, 1, 1},
		{"envelope for no module", func() { n.OnMessage(envelope{Module: "x", Payload: ping{}}) }, 1, 1},
		{"unwrapped payload", func() { n.OnMessage(ping{}) }, 1, 1},
		{"OnRecover", func() { n.OnRecover() }, 1, 1},
	}
	for _, c := range cases {
		pa, pb := a.polls, b.polls
		c.event()
		if a.polls-pa != c.da || b.polls-pb != c.db {
			t.Errorf("%s: a polled %d times, b %d times; want %d, %d", c.name, a.polls-pa, b.polls-pb, c.da, c.db)
		}
	}

	// A node whose only Poller handled the event polls nothing.
	solo := &countPoller{}
	s := NewNode().Add("solo", solo)
	s.Init(nopEnv{})
	s.OnMessage(envelope{Module: "solo", Payload: ping{}})
	s.OnTimer(0)
	if solo.polls != 1 {
		t.Errorf("lone Poller polled %d times after Init, its own message and its own timer; want 1 (Init)", solo.polls)
	}
}
