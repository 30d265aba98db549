package hruntime

import (
	"runtime"
	"testing"
	"time"

	hds "repro"
	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestLiveTraceThroughReplayTracker applies replay.Verify's judgement to a
// live run: the recorded events go through the outcome tracker that
// rebuilds outcomes from KindDecide notes, and those outcomes through
// hds.VerifyConsensus — so a live trace carries what a simulator trace
// does, in one time base.
func TestLiveTraceThroughReplayTracker(t *testing.T) {
	ids := ident.Balanced(5, 2)
	crash := map[int]time.Duration{3: 5 * time.Millisecond}
	rec := &trace.Recorder{KeepEvents: true}
	liveConsensus(t, ids, 2, crash, Options{Seed: 15, Recorder: rec})

	tracker := check.NewOutcomeTracker(ids.N())
	crashes := 0
	for _, e := range rec.Events() {
		tracker.Observe(e)
		if e.Kind == trace.KindCrash {
			crashes++
		}
	}
	if err := tracker.Err(); err != nil {
		t.Fatal(err)
	}
	if crashes != 1 {
		t.Fatalf("trace has %d crash events, want 1", crashes)
	}
	res, err := hds.VerifyConsensus(crashTruth(ids, crash), false, liveProposals(ids.N()), tracker.Outcomes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Deciders < 4 || res.Correct != 4 {
		t.Fatalf("deciders %d, correct %d; want >= 4 and 4", res.Report.Deciders, res.Correct)
	}
	// One clock: decide notes (Proc.Now) and cluster events (sinceStart)
	// are both in Options.Unit, so the last decision cannot lie beyond the
	// last event of the trace.
	var last int64
	for _, e := range rec.Events() {
		last = max(last, e.Time)
	}
	if res.Report.LastDecision > last {
		t.Fatalf("last decision at %d but the trace ends at %d: two time bases", res.Report.LastDecision, last)
	}
}

// probe is a sim.Process scripted by the test.
type probe struct {
	init  func(env sim.Environment)
	fired chan [2]int64 // (tag, env.Now()) per expired timer
	env   sim.Environment
}

func (p *probe) Init(env sim.Environment) { p.env = env; p.init(env) }
func (p *probe) OnMessage(any)            {}
func (p *probe) OnTimer(tag int)          { p.fired <- [2]int64{int64(tag), p.env.Now()} }

func TestProcSetTimerClampsToOneUnit(t *testing.T) {
	c := NewCluster(ident.Unique(1), Options{Unit: 30 * time.Millisecond})
	defer c.Close()
	pr := &probe{fired: make(chan [2]int64, 1), init: func(env sim.Environment) { env.SetTimer(0, 7) }}
	p := c.Start(0, pr)
	defer p.Stop()
	select {
	case f := <-pr.fired:
		if f[0] != 7 || f[1] < 1 {
			t.Fatalf("timer (tag %d) fired at t=%d; want tag 7 no earlier than one unit", f[0], f[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SetTimer(0, 7) never fired")
	}
}

func TestProcDoAfterStop(t *testing.T) {
	c := NewCluster(ident.Unique(1), Options{})
	defer c.Close()
	p := c.Start(0, &probe{init: func(sim.Environment) {}})
	ran := false
	if !p.Do(func() { ran = true }) || !ran {
		t.Fatal("Do on a running process did not run f")
	}
	p.Stop()
	p.Stop() // idempotent
	if p.Do(func() { t.Error("f ran after Stop") }) {
		t.Fatal("Do after Stop reported true")
	}
}

// TestProcCrashTakesNoSteps: after Crash(p) returns, p broadcasts nothing
// (trace order) and runs no handler (its detector's round stops), while Do
// still reads its state.
func TestProcCrashTakesNoSteps(t *testing.T) {
	rec := &trace.Recorder{KeepEvents: true}
	c := NewCluster(ident.Unique(3), Options{Seed: 16, Recorder: rec})
	defer c.Close()
	dets, procs := startDetectors(t, c)
	time.Sleep(20 * time.Millisecond)
	c.Crash(1)
	round := func(p int) (r int) {
		if !procs[p].Do(func() { r = dets[p].Round() }) {
			t.Fatalf("Do on process %d failed", p)
		}
		return r
	}
	// An event p1 was handling when Crash returned may still finish.
	time.Sleep(5 * time.Millisecond)
	at1, at0 := round(1), round(0)
	time.Sleep(30 * time.Millisecond)
	if got := round(1); got != at1 {
		t.Errorf("crashed process advanced from round %d to %d", at1, got)
	}
	if got := round(0); got == at0 {
		t.Errorf("live process stuck in round %d", got)
	}

	before, after := 0, 0
	crashed := false
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindCrash && e.PID == 1:
			crashed = true
		case e.Kind == trace.KindBroadcast && e.PID == 1 && crashed:
			after++
		case e.Kind == trace.KindBroadcast && e.PID == 1:
			before++
		}
	}
	if !crashed || before == 0 || after != 0 {
		t.Fatalf("crash recorded: %v; p1 broadcasts before it: %d (want > 0), after it: %d (want 0)", crashed, before, after)
	}
}

// TestProcStopLeavesNoGoroutines: Stop and Close wait for what they
// started, and an armed timer is not a goroutine.
func TestProcStopLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(ident.Unique(4), Options{Seed: 17})
	procs := make([]*Proc, 4)
	for i := range procs {
		procs[i] = c.Start(i, &probe{fired: make(chan [2]int64, 64), init: func(env sim.Environment) {
			env.Broadcast("hello")
			env.SetTimer(1, 0)
			env.SetTimer(3_600_000, 1) // still armed at the end
		}})
	}
	time.Sleep(10 * time.Millisecond)
	for _, p := range procs {
		p.Stop()
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Stop+Close:\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
