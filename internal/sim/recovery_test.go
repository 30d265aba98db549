package sim

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// beeper broadcasts every `period` units and restarts after recovery; it
// counts deliveries and recoveries. It is the minimal recovery-aware
// process: timer epochs guarantee one live chain.
type beeper struct {
	env       Environment
	period    Time
	epoch     int
	heard     int
	recovered int
}

type beep struct{}

func (beep) MsgTag() string { return "BEEP" }

func (b *beeper) Init(env Environment) {
	b.env = env
	env.Broadcast(beep{})
	env.SetTimer(b.period, b.epoch)
}
func (b *beeper) OnMessage(any) { b.heard++ }
func (b *beeper) OnTimer(tag int) {
	if tag != b.epoch {
		return
	}
	b.env.Broadcast(beep{})
	b.env.SetTimer(b.period, b.epoch)
}
func (b *beeper) OnRecover() {
	b.epoch++
	b.recovered++
	b.env.Broadcast(beep{})
	b.env.SetTimer(b.period, b.epoch)
}

func newBeeperEngine(n int, seed int64, rec *trace.Recorder) (*Engine, []*beeper) {
	eng := New(Config{IDs: ident.Unique(n), Net: Timely{Delta: 2}, Seed: seed, Recorder: rec})
	procs := make([]*beeper, n)
	for i := range procs {
		procs[i] = &beeper{period: 5}
		eng.AddProcess(procs[i])
	}
	return eng, procs
}

func TestRecoverResumesProcess(t *testing.T) {
	eng, procs := newBeeperEngine(3, 1, nil)
	eng.CrashAt(2, 10)
	eng.RecoverAt(2, 30)
	eng.Run(60)

	if eng.Crashed(2) {
		t.Fatal("process 2 still down after RecoverAt")
	}
	if !eng.EverCrashed(2) {
		t.Fatal("EverCrashed must stay sticky across recovery")
	}
	if eng.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", eng.Recoveries())
	}
	if procs[2].recovered != 1 {
		t.Fatalf("OnRecover called %d times, want 1", procs[2].recovered)
	}
	// The recovered process must hear post-recovery traffic again.
	heardAtRecovery := procs[2].heard
	eng2, procs2 := newBeeperEngine(3, 1, nil)
	eng2.CrashAt(2, 10)
	eng2.Run(60)
	if procs[2].heard <= procs2[2].heard {
		t.Fatalf("recovered process heard %d, crash-stop twin heard %d — recovery did not resume delivery (heard at recovery %d)",
			procs[2].heard, procs2[2].heard, heardAtRecovery)
	}
}

func TestRecoverOnUpProcessIsNoOp(t *testing.T) {
	eng, procs := newBeeperEngine(2, 3, nil)
	eng.RecoverAt(1, 10) // never crashed
	eng.Run(30)
	if eng.Recoveries() != 0 {
		t.Fatalf("Recoveries = %d, want 0 (recover on an up process)", eng.Recoveries())
	}
	if procs[1].recovered != 0 {
		t.Fatal("OnRecover fired for a process that never crashed")
	}
}

// TestPastTimeSchedulingClampsMonotone is the regression test for the
// time-rewind bug: CrashAt/RecoverAt with t < now (and hostile Model
// delays) must clamp to the present, never rewind virtual time.
func TestPastTimeSchedulingClampsMonotone(t *testing.T) {
	eng, _ := newBeeperEngine(2, 5, nil)
	last := Time(-1)
	eng.AfterEvent(func(now Time, p PID) {
		if now < last {
			t.Fatalf("virtual time rewound: %d after %d", now, last)
		}
		last = now
	})
	eng.RunUntil(1000, func() bool { return eng.Now() >= 40 })
	if eng.Now() < 40 {
		t.Fatalf("setup: engine only reached t=%d", eng.Now())
	}
	// Hostile schedule: a crash and a recovery far in the past.
	eng.CrashAt(0, 3)
	eng.RecoverAt(0, 7)
	eng.Run(80)
	if last < 40 {
		t.Fatalf("post-schedule events ran at t=%d < 40", last)
	}
	if eng.Crashed(0) {
		t.Fatal("clamped crash+recover pair should leave process 0 up")
	}
	if !eng.EverCrashed(0) {
		t.Fatal("clamped crash never fired")
	}
}

// hostileModel returns delays that would move time backwards if the engine
// trusted them.
type hostileModel struct{}

func (hostileModel) Delay(_ Time, _ *Fate) (Time, bool) { return -1000, true }
func (hostileModel) String() string                     { return "hostile" }

func TestHostileModelDelaysCannotRewindTime(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(2), Net: hostileModel{}, Seed: 1})
	eng.AddProcess(&beeper{period: 5})
	eng.AddProcess(&beeper{period: 5})
	last := Time(-1)
	eng.AfterEvent(func(now Time, p PID) {
		if now < last {
			t.Fatalf("virtual time rewound: %d after %d", now, last)
		}
		last = now
	})
	eng.Run(30)
	if eng.Now() < 1 {
		t.Fatal("negative delays froze the clock; want clamping to >= 1")
	}
}

// TestStopReasons pins the Run/RunUntil exit-cause contract (the MaxEvents
// guard used to be indistinguishable from quiescence).
func TestStopReasons(t *testing.T) {
	t.Run("not-run", func(t *testing.T) {
		eng, _ := newBeeperEngine(1, 1, nil)
		if eng.Stopped() != StopNone {
			t.Fatalf("Stopped = %v before any run", eng.Stopped())
		}
	})
	t.Run("horizon", func(t *testing.T) {
		eng, _ := newBeeperEngine(1, 1, nil)
		eng.Run(17)
		if eng.Stopped() != StopHorizon {
			t.Fatalf("Stopped = %v, want horizon (beeper timers never stop)", eng.Stopped())
		}
	})
	t.Run("predicate", func(t *testing.T) {
		eng, _ := newBeeperEngine(1, 1, nil)
		eng.RunUntil(1000, func() bool { return eng.Processed() >= 3 })
		if eng.Stopped() != StopPredicate {
			t.Fatalf("Stopped = %v, want predicate", eng.Stopped())
		}
	})
	t.Run("max-events", func(t *testing.T) {
		eng, _ := newBeeperEngine(1, 1, nil)
		eng.cfg.MaxEvents = 5
		eng.Run(1000)
		if eng.Stopped() != StopMaxEvents {
			t.Fatalf("Stopped = %v, want max-events", eng.Stopped())
		}
	})
	t.Run("quiescent", func(t *testing.T) {
		eng := New(Config{IDs: ident.Unique(2), Net: Timely{Delta: 1}, Seed: 1})
		eng.AddProcess(&echoProc{})
		eng.AddProcess(&echoProc{})
		eng.Run(1000) // echoProc sets no timers: the queue drains
		if eng.Stopped() != StopQuiescent {
			t.Fatalf("Stopped = %v, want quiescent", eng.Stopped())
		}
	})
}

// TestCorrectSetPartialCrashNeverFires is the regression test for the
// ground-truth misclassification: a process armed with CrashDuringBroadcast
// that never broadcasts after `after` never actually crashes, so once the
// run quiesces (no broadcast can ever happen again) it belongs in the
// Correct set. It used to be excluded forever.
func TestCorrectSetPartialCrashNeverFires(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(3), Net: Timely{Delta: 1}, Seed: 2})
	for i := 0; i < 3; i++ {
		eng.AddProcess(&echoProc{}) // broadcasts only at t=0, then goes silent
	}
	eng.CrashDuringBroadcast(1, 5, 0.5) // t=0 broadcast is before `after`: never fires
	// While the run can still broadcast, the armed process is excluded.
	if got := len(eng.CorrectSet()); got != 2 {
		t.Fatalf("pre-run CorrectSet size = %d, want 2 (armed process pending)", got)
	}
	eng.Run(1000)
	if eng.Stopped() != StopQuiescent {
		t.Fatalf("setup: run ended with %v, want quiescent", eng.Stopped())
	}
	if eng.Crashed(1) {
		t.Fatal("process 1 crashed despite never broadcasting after `after`")
	}
	if got := len(eng.CorrectSet()); got != 3 {
		t.Fatalf("CorrectSet size = %d, want 3: an arm that can never fire is not a crash", got)
	}
	if got := len(eng.EventuallyUpSet()); got != 3 {
		t.Fatalf("EventuallyUpSet size = %d, want 3", got)
	}
}

// TestTimerDropRecorded is the regression test for silently vanishing
// timers: a timer expiring on a down process must leave a trace event,
// exactly like a dropped message copy.
func TestTimerDropRecorded(t *testing.T) {
	rec := trace.NewRecorder()
	eng, _ := newBeeperEngine(2, 4, rec)
	eng.CrashAt(1, 7) // p1's t=10 timer expires while down
	eng.Run(12)
	drops := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindTimerDrop {
			drops++
			if ev.PID != 1 {
				t.Fatalf("timer drop recorded for p%d, want p1", ev.PID)
			}
		}
	}
	if drops == 0 {
		t.Fatal("no KindTimerDrop recorded for a timer on a down process")
	}
	if got := rec.Stats().TimerDrops; got != drops {
		t.Fatalf("Stats.TimerDrops = %d, want %d", got, drops)
	}
}

// TestTraceEqualityChurnInterleavings pins trace-drop consistency across
// crash interleavings with timers, deliveries and recoveries: two runs of
// the same seeded scenario must produce byte-identical traces, and the
// trace must account for every suppressed action (message drops, timer
// drops) and state change (crashes, recoveries).
func TestTraceEqualityChurnInterleavings(t *testing.T) {
	run := func() []trace.Event {
		rec := trace.NewRecorder()
		eng, _ := newBeeperEngine(4, 9, rec)
		eng.CrashAt(1, 6)
		eng.RecoverAt(1, 21)
		eng.CrashAt(2, 11)
		eng.RecoverAt(2, 16)
		eng.CrashAt(2, 33)
		eng.Run(60)
		return rec.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	seen := map[trace.Kind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
		seen[a[i].Kind]++
	}
	for _, want := range []trace.Kind{
		trace.KindBroadcast, trace.KindDeliver, trace.KindTimer,
		trace.KindCrash, trace.KindRecover, trace.KindDrop, trace.KindTimerDrop,
	} {
		if seen[want] == 0 {
			t.Errorf("scenario never produced a %v event; the interleaving is not covered", want)
		}
	}
}

// TestEventuallyUpSet pins the engine-side ground truth for crash-recovery
// schedules, including orderings the queue resolves by sequence number.
func TestEventuallyUpSet(t *testing.T) {
	eng, _ := newBeeperEngine(6, 11, nil)
	eng.CrashAt(1, 10) // crash-stop: down forever
	eng.CrashAt(2, 10) // crash, recover: eventually up
	eng.RecoverAt(2, 20)
	eng.CrashAt(3, 10) // crash, recover, crash: down forever
	eng.RecoverAt(3, 20)
	eng.CrashAt(3, 30)
	eng.RecoverAt(4, 5) // recovery scheduled before its crash fires: down
	eng.CrashAt(4, 15)
	check := func(stage string) {
		t.Helper()
		want := map[PID]bool{0: true, 2: true, 5: true}
		got := map[PID]bool{}
		for _, p := range eng.EventuallyUpSet() {
			got[p] = true
		}
		for p := PID(0); p < 6; p++ {
			if got[p] != want[p] {
				t.Fatalf("%s: EventuallyUpSet = %v, want {0 2 5}", stage, eng.EventuallyUpSet())
			}
		}
	}
	check("pre-run (scheduled only)")
	eng.Run(100)
	check("post-run (all fired)")
	// Correct remains strict: only the never-crashed processes.
	if got := len(eng.CorrectSet()); got != 2 { // p0, p5 (p4's crash fired)
		t.Fatalf("CorrectSet size = %d, want 2, set %v", got, eng.CorrectSet())
	}
}

// TestEventuallyUpWithPartialCrash: a fired mid-broadcast crash followed by
// a scheduled recovery counts as eventually up; a live arm never does.
func TestEventuallyUpWithPartialCrash(t *testing.T) {
	eng, _ := newBeeperEngine(3, 13, nil)
	eng.CrashDuringBroadcast(1, 4, 0.5)
	eng.RecoverAt(1, 40)
	if got := eng.EventuallyUpSet(); len(got) != 2 {
		t.Fatalf("live arm: EventuallyUpSet = %v, want {0 2} (arm outranks scheduled recovery)", got)
	}
	eng.Run(60)
	if !eng.EverCrashed(1) || eng.Crashed(1) {
		t.Fatalf("setup: p1 everCrashed=%v crashed=%v, want fired then recovered", eng.EverCrashed(1), eng.Crashed(1))
	}
	if got := eng.EventuallyUpSet(); len(got) != 3 {
		t.Fatalf("post-run EventuallyUpSet = %v, want all 3 (crash fired before recovery)", got)
	}
	if got := len(eng.CorrectSet()); got != 2 {
		t.Fatalf("CorrectSet size = %d, want 2 (p1 crashed)", got)
	}
}

// TestEventuallyUpSetOutOfOrderSchedule pins the schedule bookkeeping for
// hand-built schedules whose calls are not sorted by time: the final state
// depends on the latest event in SCHEDULE time, not on call order.
func TestEventuallyUpSetOutOfOrderSchedule(t *testing.T) {
	eng, _ := newBeeperEngine(3, 29, nil)
	// p1, scheduled newest-first: pops as crash@50, recover@150, crash@200
	// — eventually down.
	eng.CrashAt(1, 200)
	eng.RecoverAt(1, 150)
	eng.CrashAt(1, 50)
	// p2, same shape plus a final recovery — eventually up.
	eng.CrashAt(2, 220)
	eng.RecoverAt(2, 300)
	eng.RecoverAt(2, 150)
	eng.CrashAt(2, 50)
	check := func(stage string) {
		t.Helper()
		got := map[PID]bool{}
		for _, p := range eng.EventuallyUpSet() {
			got[p] = true
		}
		if !got[0] || got[1] || !got[2] {
			t.Fatalf("%s: EventuallyUpSet = %v, want {0 2}", stage, eng.EventuallyUpSet())
		}
	}
	check("pre-run")
	eng.Run(400)
	check("post-run")
	if eng.Crashed(1) != true || eng.Crashed(2) != false {
		t.Fatalf("execution disagrees: p1 down=%v p2 down=%v, want true/false", eng.Crashed(1), eng.Crashed(2))
	}
}

// TestEventuallyUpPartialCrashWithLaterScheduledCrash: a fired partial
// crash must not mask a crash scheduled even later in time.
func TestEventuallyUpPartialCrashWithLaterScheduledCrash(t *testing.T) {
	eng, _ := newBeeperEngine(2, 31, nil)
	eng.CrashDuringBroadcast(1, 4, 0.5) // fires at the t=5 beep
	eng.RecoverAt(1, 50)
	eng.CrashAt(1, 100) // after the recovery: p1 ends down
	eng.Run(200)
	if !eng.EverCrashed(1) || !eng.Crashed(1) {
		t.Fatalf("setup: everCrashed=%v down=%v, want partial fire then final crash", eng.EverCrashed(1), eng.Crashed(1))
	}
	for _, p := range eng.EventuallyUpSet() {
		if p == 1 {
			t.Fatal("p1 in EventuallyUpSet despite a crash after its recovery")
		}
	}
}

// nodeRecoverMod counts recoveries forwarded through a Node.
type nodeRecoverMod struct {
	env       Environment
	recovered int
}

func (m *nodeRecoverMod) Init(env Environment) { m.env = env; env.SetTimer(5, 0) }
func (m *nodeRecoverMod) OnMessage(any)        {}
func (m *nodeRecoverMod) OnTimer(int)          { m.env.SetTimer(5, 0) }
func (m *nodeRecoverMod) OnRecover()           { m.recovered++ }

func TestNodeForwardsRecovery(t *testing.T) {
	eng := New(Config{IDs: ident.Unique(1), Net: Timely{Delta: 1}, Seed: 1})
	mod := &nodeRecoverMod{}
	eng.AddProcess(NewNode().Add("m", mod))
	eng.CrashAt(0, 10)
	eng.RecoverAt(0, 20)
	eng.Run(40)
	if mod.recovered != 1 {
		t.Fatalf("module OnRecover called %d times, want 1", mod.recovered)
	}
}
