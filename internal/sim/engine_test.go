package sim

import (
	"sync/atomic"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// echoProc broadcasts one HELLO at init and counts everything it receives.
type echoProc struct {
	env      Environment
	received []any
	timers   []int
}

type hello struct{ From ident.ID }

func (hello) MsgTag() string { return "HELLO" }

func (p *echoProc) Init(env Environment) {
	p.env = env
	env.Broadcast(hello{From: env.ID()})
}
func (p *echoProc) OnMessage(payload any) { p.received = append(p.received, payload) }
func (p *echoProc) OnTimer(tag int)       { p.timers = append(p.timers, tag) }

func newEngine(t *testing.T, ids ident.Assignment, net Model, seed int64) (*Engine, []*echoProc) {
	t.Helper()
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ids, Net: net, Seed: seed, Recorder: rec})
	procs := make([]*echoProc, ids.N())
	for i := range procs {
		procs[i] = &echoProc{}
		eng.AddProcess(procs[i])
	}
	return eng, procs
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	eng, procs := newEngine(t, ident.Unique(4), Async{MaxDelay: 5}, 1)
	eng.Run(100)
	for i, p := range procs {
		if got := len(p.received); got != 4 {
			t.Errorf("process %d received %d messages, want 4 (one per sender incl. self)", i, got)
		}
	}
}

func TestReceiverCannotSeeSenderLink(t *testing.T) {
	// The payload is all a receiver gets; with homonyms the sender is
	// genuinely ambiguous. This is a compile-shape test of the model: two
	// homonymous processes send identical payloads.
	eng, procs := newEngine(t, ident.AnonymousN(3), Async{}, 7)
	eng.Run(100)
	for _, p := range procs {
		for _, m := range p.received {
			if m.(hello).From != ident.Anonymous {
				t.Fatalf("unexpected payload %v", m)
			}
		}
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	eng, procs := newEngine(t, ident.Unique(3), Timely{Delta: 5}, 3)
	eng.CrashAt(2, 1) // crashes before any delivery at t=5
	eng.Run(100)
	if got := len(procs[2].received); got != 0 {
		t.Errorf("crashed process received %d messages, want 0", got)
	}
	if !eng.Crashed(2) {
		t.Error("process 2 should be crashed")
	}
	for i := 0; i < 2; i++ {
		if got := len(procs[i].received); got != 3 {
			t.Errorf("process %d received %d, want 3 (crash at t=1 is after t=0 broadcasts)", i, got)
		}
	}
}

func TestCorrectSetExcludesScheduledCrashes(t *testing.T) {
	eng, _ := newEngine(t, ident.Unique(4), Async{}, 5)
	eng.CrashAt(1, 50)
	got := eng.CorrectSet()
	want := []PID{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("CorrectSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CorrectSet = %v, want %v", got, want)
		}
	}
}

func TestTimerFires(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(1), Seed: 1})
	p := &timerProc{}
	eng.AddProcess(p)
	eng.Run(100)
	if len(p.fired) != 3 {
		t.Fatalf("timers fired = %v, want 3 chained firings", p.fired)
	}
	for i, at := range []Time{10, 20, 30} {
		if p.fired[i] != at {
			t.Errorf("timer %d fired at %d, want %d", i, p.fired[i], at)
		}
	}
}

type timerProc struct {
	env   Environment
	fired []Time
}

func (p *timerProc) Init(env Environment) {
	p.env = env
	env.SetTimer(10, 0)
}
func (p *timerProc) OnMessage(any) {}
func (p *timerProc) OnTimer(tag int) {
	p.fired = append(p.fired, p.env.Now())
	if len(p.fired) < 3 {
		p.env.SetTimer(10, tag)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []trace.Event {
		rec := trace.NewRecorder()
		eng := New(Config{IDs: ident.Balanced(5, 2), Net: Async{MaxDelay: 7}, Seed: 42, Recorder: rec})
		for i := 0; i < 5; i++ {
			eng.AddProcess(&echoProc{})
		}
		eng.CrashAt(4, 3)
		eng.Run(200)
		return rec.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed int64) []trace.Event {
		rec := trace.NewRecorder()
		eng := New(Config{IDs: ident.Unique(5), Net: Async{MaxDelay: 20}, Seed: seed, Recorder: rec})
		for i := 0; i < 5; i++ {
			eng.AddProcess(&echoProc{})
		}
		eng.Run(200)
		return rec.Events()
	}
	a, b := run(1), run(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical executions; adversary is not random")
	}
}

func TestPartialSyncDropsOnlyBeforeGST(t *testing.T) {
	rec := trace.NewRecorder()
	net := PartialSync{GST: 50, Delta: 3, PreLoss: 1.0, PreMax: 10}
	eng := New(Config{IDs: ident.Unique(2), Net: net, Seed: 9, Recorder: rec})
	var procs []*pollster
	for i := 0; i < 2; i++ {
		p := &pollster{}
		procs = append(procs, p)
		eng.AddProcess(p)
	}
	eng.Run(100)
	// With PreLoss=1 every pre-GST copy is dropped; every post-GST copy
	// must arrive within Delta.
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindDeliver && ev.Time < 50 {
			t.Errorf("delivery at t=%d before GST despite PreLoss=1", ev.Time)
		}
	}
	for _, p := range procs {
		if len(p.received) == 0 {
			t.Error("no post-GST deliveries; links not eventually timely")
		}
	}
	for _, lat := range latencies(rec.Events(), 50) {
		if lat > 3 {
			t.Errorf("post-GST latency %d exceeds δ=3", lat)
		}
	}
}

// pollster broadcasts every 5 units forever.
type pollster struct {
	env      Environment
	received []any
}

func (p *pollster) Init(env Environment) {
	p.env = env
	env.Broadcast(hello{From: env.ID()})
	env.SetTimer(5, 0)
}
func (p *pollster) OnMessage(m any) { p.received = append(p.received, m) }
func (p *pollster) OnTimer(tag int) {
	p.env.Broadcast(hello{From: p.env.ID()})
	p.env.SetTimer(5, tag)
}

// latencies pairs broadcast and deliver events after the cutoff. With a
// per-broadcast fan-out this is approximate, so it conservatively computes
// delivery_time - latest_broadcast_time <= observed bound.
func latencies(events []trace.Event, cutoff int64) []int64 {
	var lastBroadcast int64
	var out []int64
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindBroadcast:
			lastBroadcast = ev.Time
		case trace.KindDeliver:
			if ev.Time >= cutoff && lastBroadcast >= cutoff {
				out = append(out, ev.Time-lastBroadcast)
			}
		}
	}
	return out
}

func TestCrashDuringBroadcastDeliversSubset(t *testing.T) {
	// With deliverProb 0.5 over many recipients, some but not all copies
	// of the final broadcast should arrive, and the sender must be crashed.
	n := 40
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ident.Unique(n), Net: Timely{Delta: 1}, Seed: 11, Recorder: rec})
	procs := make([]*pollster, n)
	for i := range procs {
		procs[i] = &pollster{}
		eng.AddProcess(procs[i])
	}
	eng.CrashDuringBroadcast(0, 4, 0.5)
	eng.Run(9) // p0 broadcasts at t=0 and t=5; the t=5 one is partial
	if !eng.Crashed(0) {
		t.Fatal("process 0 should have crashed during its t=5 broadcast")
	}
	delivered := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindDrop && ev.Detail == "sender crashed mid-broadcast" {
			delivered++ // count drops to confirm partial delivery happened
		}
	}
	if delivered == 0 || delivered == n {
		t.Errorf("mid-broadcast drops = %d, want strictly between 0 and %d", delivered, n)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(1), Seed: 1, MaxEvents: 10})
	eng.AddProcess(&foreverTimer{})
	eng.Run(1 << 40)
	if eng.Processed() > 10 {
		t.Errorf("processed %d events, guard was 10", eng.Processed())
	}
}

type foreverTimer struct{ env Environment }

func (p *foreverTimer) Init(env Environment) { p.env = env; env.SetTimer(1, 0) }
func (p *foreverTimer) OnMessage(any)        {}
func (p *foreverTimer) OnTimer(tag int)      { p.env.SetTimer(1, tag) }

func TestRunUntilPredicate(t *testing.T) {
	eng, procs := newEngine(t, ident.Unique(3), Timely{Delta: 2}, 1)
	eng.RunUntil(100, func() bool { return len(procs[0].received) >= 2 })
	if got := len(procs[0].received); got != 2 {
		t.Errorf("stopped with %d received, want exactly 2", got)
	}
}

func TestKnownNVisibility(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(3), Seed: 1, KnownN: true})
	p := &echoProc{}
	eng.AddProcess(p)
	eng.AddProcess(&echoProc{})
	eng.AddProcess(&echoProc{})
	eng.Run(10)
	if n, ok := p.env.N(); !ok || n != 3 {
		t.Errorf("N() = %d,%v want 3,true", n, ok)
	}

	eng2 := New(Config{IDs: ident.Unique(2), Seed: 1})
	q := &echoProc{}
	eng2.AddProcess(q)
	eng2.AddProcess(&echoProc{})
	eng2.Run(10)
	if _, ok := q.env.N(); ok {
		t.Error("N() should be unknown when KnownN is false")
	}
}

func TestEngineAccessors(t *testing.T) {
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ident.Unique(2), Net: Timely{Delta: 1}, Seed: 1, Recorder: rec})
	p := &echoProc{}
	eng.AddProcess(p)
	eng.AddProcess(&echoProc{})
	samples := 0
	eng.AfterEvent(func(now Time, p PID) { samples++ })
	eng.Run(20)
	if eng.Now() == 0 {
		t.Error("Now should advance past 0 after deliveries")
	}
	if samples == 0 {
		t.Error("AfterEvent observer never fired")
	}
	if got := eng.ids.N(); got != 2 {
		t.Errorf("ids.N() = %d", got)
	}
	env := eng.envs[0]
	if env.ID() != eng.ids[0] || env.PID() != 0 {
		t.Errorf("envs[0] = id %v pid %v", env.ID(), env.PID())
	}
	if env.Rand() == nil {
		t.Error("Rand is nil")
	}
	env.Note(trace.KindNote, "X", "detail")
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindNote && ev.MsgTag == "X" {
			found = true
		}
	}
	if !found {
		t.Error("Note event not recorded")
	}
}

func TestEngineSetupPanics(t *testing.T) {
	t.Run("too many processes", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		eng := New(Config{IDs: ident.Unique(1), Seed: 1})
		eng.AddProcess(&echoProc{})
		eng.AddProcess(&echoProc{})
	})
	t.Run("too few processes", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		eng := New(Config{IDs: ident.Unique(2), Seed: 1})
		eng.AddProcess(&echoProc{})
		eng.Run(10)
	})
	t.Run("invalid assignment", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		New(Config{IDs: ident.Assignment{}, Seed: 1})
	})
	t.Run("add after start", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		eng := New(Config{IDs: ident.Unique(1), Seed: 1})
		eng.AddProcess(&echoProc{})
		eng.Run(10)
		eng.AddProcess(&echoProc{})
	})
}

// moduleEnv accessors are normally exercised from other packages; cover
// them here too so the package documents its own contract.
func TestModuleEnvAccessors(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(1), Seed: 4, KnownN: true})
	probe := &envProbe{}
	eng.AddProcess(NewNode().Add("m", probe))
	eng.Run(10)
	if probe.id != eng.ids[0] || probe.pid != 0 || probe.n != 1 || !probe.nOK {
		t.Errorf("module env saw id=%v pid=%v n=%d ok=%v", probe.id, probe.pid, probe.n, probe.nOK)
	}
	if !probe.randOK || probe.now < 0 {
		t.Error("module env Rand/Now not functional")
	}
}

type envProbe struct {
	id     ident.ID
	pid    PID
	n      int
	nOK    bool
	now    Time
	randOK bool
}

func (e *envProbe) Init(env Environment) {
	e.id = env.ID()
	e.pid = env.PID()
	e.n, e.nOK = env.N()
	e.now = env.Now()
	e.randOK = env.Rand() != nil
	env.Note(trace.KindNote, "probe", "init")
}
func (e *envProbe) OnMessage(any) {}
func (e *envProbe) OnTimer(int)   {}

func TestModuleNegativeTimerTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative module timer tag")
		}
	}()
	eng := New(Config{IDs: ident.Unique(1), Seed: 1})
	eng.AddProcess(NewNode().Add("m", &badTimerMod{}))
	eng.Run(5)
}

type badTimerMod struct{}

func (m *badTimerMod) Init(env Environment) { env.SetTimer(1, -1) }
func (m *badTimerMod) OnMessage(any)        {}
func (m *badTimerMod) OnTimer(int)          {}

// TestCorrectSetCrashThenQueryOrdering is the regression test for the
// incremental pending-crash bookkeeping: CorrectSet must give the same
// answer at every interleaving of scheduling, firing, and querying —
// including duplicate crash schedules for one process and crashes
// scheduled for already-crashed processes.
func TestCorrectSetCrashThenQueryOrdering(t *testing.T) {
	eng, _ := newEngine(t, ident.Unique(4), Timely{Delta: 2}, 1)
	// Two crash events for p1 (the schedule API allows duplicates) and one
	// for p2, later.
	eng.CrashAt(1, 10)
	eng.CrashAt(1, 20)
	eng.CrashAt(2, 30)

	correct := func() map[PID]bool {
		out := map[PID]bool{}
		for _, p := range eng.CorrectSet() {
			out[p] = true
		}
		return out
	}
	// Before running: both scheduled processes are excluded.
	if c := correct(); !c[0] || c[1] || c[2] || !c[3] {
		t.Fatalf("pre-run CorrectSet = %v", eng.CorrectSet())
	}
	// Query after every event: the answer must be stable at every point —
	// a scheduled-but-unfired crash excludes exactly like a fired one.
	eng.AfterEvent(func(now Time, p PID) {
		if c := correct(); !c[0] || c[1] || c[2] || !c[3] {
			t.Fatalf("t=%d: CorrectSet = %v", now, eng.CorrectSet())
		}
	})
	eng.Run(100)
	if !eng.Crashed(1) || !eng.Crashed(2) {
		t.Fatal("scheduled crashes did not fire")
	}
	if got := len(eng.CorrectSet()); got != 2 {
		t.Fatalf("final CorrectSet size = %d, want 2", got)
	}
}

// TestCorrectSetWithCrashDuringBroadcast pins the interaction between the
// pending-crash counters and the partial-crash path: a process marked
// CrashDuringBroadcast is excluded from CorrectSet before, during and
// after its final partial broadcast, and combining both crash APIs on one
// process cannot resurrect it.
func TestCorrectSetWithCrashDuringBroadcast(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(6), Net: Timely{Delta: 1}, Seed: 3})
	procs := make([]*pollster, 6)
	for i := range procs {
		procs[i] = &pollster{}
		eng.AddProcess(procs[i])
	}
	eng.CrashDuringBroadcast(0, 4, 0.5)
	// p0 also has a (redundant) timed crash after the partial one fires.
	eng.CrashAt(0, 50)
	eng.CrashAt(1, 8)

	sawDuring := false
	eng.AfterEvent(func(now Time, p PID) {
		for _, q := range eng.CorrectSet() {
			if q == 0 || q == 1 {
				t.Fatalf("t=%d: process %d in CorrectSet despite scheduled/partial crash", now, q)
			}
		}
		if eng.Crashed(0) {
			sawDuring = true
		}
	})
	eng.Run(100)
	if !eng.Crashed(0) {
		t.Fatal("process 0 never crashed during broadcast")
	}
	if !sawDuring {
		t.Fatal("observer never saw the post-crash state")
	}
	// All crash events drained: CorrectSet must now be exactly {2,3,4,5}.
	got := eng.CorrectSet()
	want := []PID{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("CorrectSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CorrectSet = %v, want %v", got, want)
		}
	}
}

// TestAfterEventReportsEventProcess pins the AfterEvent contract: the
// callback receives the PID the event concerned, and -1 exactly once for
// the initial time-0 notification.
func TestAfterEventReportsEventProcess(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(3), Net: Timely{Delta: 2}, Seed: 1})
	for i := 0; i < 3; i++ {
		eng.AddProcess(&echoProc{})
	}
	eng.CrashAt(2, 1)
	inits, events := 0, 0
	eng.AfterEvent(func(now Time, p PID) {
		if p == -1 {
			inits++
			if now != 0 {
				t.Fatalf("init notification at t=%d", now)
			}
			return
		}
		events++
		if p < 0 || int(p) >= 3 {
			t.Fatalf("event PID %d out of range", p)
		}
	})
	eng.Run(50)
	if inits != 1 {
		t.Fatalf("got %d init notifications, want 1", inits)
	}
	if events != eng.Processed() {
		t.Fatalf("observer saw %d events, engine processed %d", events, eng.Processed())
	}
}

// TestEventQueueOrdering is a property test for the value-typed 4-ary
// heap: pushes with random times must pop in nondecreasing (time, seq)
// order, FIFO among equal times.
func TestEventQueueOrdering(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(1), Seed: 99})
	rng := eng.rng
	for i := 0; i < 5000; i++ {
		eng.push(event{time: Time(rng.Int63n(50)), kind: evTimer, pid: 0, arg: int32(i)})
	}
	lastTime := Time(-1)
	lastSeq := uint64(0)
	for i := 0; i < 5000; i++ {
		ev := eng.pop()
		if ev.time < lastTime || (ev.time == lastTime && ev.seq < lastSeq) {
			t.Fatalf("pop %d out of order: t=%d seq=%d after t=%d seq=%d", i, ev.time, ev.seq, lastTime, lastSeq)
		}
		lastTime, lastSeq = ev.time, ev.seq
	}
	if len(eng.queue) != 0 {
		t.Fatalf("queue not drained: %d left", len(eng.queue))
	}
}

// TestTraceOffNoTagComputation pins the lazy-trace contract: with a nil
// recorder the engine must not call MsgTag or format details.
func TestTraceOffNoTagComputation(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(2), Net: Timely{Delta: 1}, Seed: 1})
	probes := []*tagCounter{{}, {}}
	eng.AddProcess(probes[0])
	eng.AddProcess(probes[1])
	eng.Run(20)
	if n := tagCalls.Load(); n != 0 {
		t.Fatalf("MsgTag called %d times with tracing off", n)
	}
}

var tagCalls atomic.Int64

type countedPayload struct{}

func (countedPayload) MsgTag() string { tagCalls.Add(1); return "COUNTED" }

type tagCounter struct{ env Environment }

func (p *tagCounter) Init(env Environment) { p.env = env; env.Broadcast(countedPayload{}) }
func (p *tagCounter) OnMessage(any)        {}
func (p *tagCounter) OnTimer(int)          {}
