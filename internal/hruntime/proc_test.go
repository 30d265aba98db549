package hruntime

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	hds "repro"
	"repro/internal/check"
	"repro/internal/fd/ohp"
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

// handlerCounter is an ohp detector that counts the handlers it runs.
type handlerCounter struct {
	*ohp.Detector
	handled int
}

func (h *handlerCounter) OnMessage(payload any) { h.handled++; h.Detector.OnMessage(payload) }
func (h *handlerCounter) OnTimer(tag int)       { h.handled++; h.Detector.OnTimer(tag) }

// TestProcCrashTakesNoSteps: after Crash(p) returns, p broadcasts nothing
// (trace order) and runs no handler, while Do still reads its state.
func TestProcCrashTakesNoSteps(t *testing.T) {
	rec := &trace.Recorder{KeepEvents: true}
	c := NewCluster(ident.Unique(3), Options{Seed: 16, Recorder: rec})
	defer c.Close()
	dets := make([]*handlerCounter, c.N())
	procs := make([]*Proc, c.N())
	for i := range procs {
		dets[i] = &handlerCounter{Detector: ohp.New()}
		procs[i] = c.Start(i, dets[i])
		t.Cleanup(procs[i].Stop)
	}
	time.Sleep(20 * time.Millisecond)
	c.Crash(1)
	handled := func(p int) (n int) {
		if !procs[p].Do(func() { n = dets[p].handled }) {
			t.Fatalf("Do on process %d failed", p)
		}
		return n
	}
	// An event p1 was handling when Crash returned may still finish.
	time.Sleep(5 * time.Millisecond)
	at1, at0 := handled(1), handled(0)
	time.Sleep(30 * time.Millisecond)
	if got := handled(1); got != at1 {
		t.Errorf("crashed process ran handlers: %d before, %d after", at1, got)
	}
	if got := handled(0); got == at0 {
		t.Errorf("live process stuck at %d handlers", got)
	}

	// The recorder is read once its writers are gone.
	for _, p := range procs {
		p.Stop()
	}
	c.Close()
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

// tagged is a payload whose trace tag is its own text.
type tagged string

func (m tagged) MsgTag() string { return string(m) }

// chatter notes and broadcasts k messages in turn from Init, then notes
// every message it receives, and reports on done once it has want.
type chatter struct {
	k, want int
	done    chan<- struct{}
	env     sim.Environment
	got     []string // tags in receipt order
}

func (c *chatter) Init(env sim.Environment) {
	c.env = env
	for i := 0; i < c.k; i++ {
		tag := fmt.Sprintf("M%d.%d", env.PID(), i)
		env.Note(trace.KindNote, "SEND", tag)
		env.Broadcast(tagged(tag))
	}
}

func (c *chatter) OnMessage(m any) {
	tag := string(m.(tagged))
	c.got = append(c.got, tag)
	c.env.Note(trace.KindNote, "RECV", tag)
	if len(c.got) == c.want {
		c.done <- struct{}{}
	}
}

func (c *chatter) OnTimer(int) {}

// TestConcurrentRecordExactlyOnce: n processes note and broadcast at once
// while the delivery goroutines record their copies, all into one
// retaining recorder — in memory, and spilled to a binary sink on the
// recorder's background goroutine. The cluster lock is the recorder's only
// serialization: every broadcast, delivery and note must be recorded
// exactly once, and each process's own events in the order it made them.
func TestConcurrentRecordExactlyOnce(t *testing.T) {
	const n, k = 4, 50
	for _, spill := range []bool{false, true} {
		var bin bytes.Buffer
		rec := &trace.Recorder{KeepEvents: true, BufSize: 7}
		if spill {
			rec = trace.NewSpillRecorder(trace.NewBinarySink(&bin), 7)
		}
		c := NewCluster(ident.Unique(n), Options{Seed: 18, Recorder: rec})
		t.Cleanup(c.Close)
		done := make(chan struct{}, n)
		chatters := make([]*chatter, n)
		procs := make([]*Proc, n)
		for i := range procs {
			chatters[i] = &chatter{k: k, want: n * k, done: done}
			procs[i] = c.Start(i, chatters[i])
			t.Cleanup(procs[i].Stop)
		}
		for range n {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("spill=%v: not every process received all %d messages", spill, n*k)
			}
		}
		for _, p := range procs {
			p.Stop()
		}
		c.Close()

		events := rec.Events()
		if spill {
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			var err error
			if events, err = trace.ReadBinary(&bin); err != nil {
				t.Fatal(err)
			}
		}
		if want := n * k * (2 + 2*n); len(events) != want {
			t.Errorf("spill=%v: %d events recorded, want %d", spill, len(events), want)
		}
		seen := map[trace.Event]int{}   // events less their time stamps
		own := make([][]trace.Event, n) // each process's notes and broadcasts, in trace order
		for _, e := range events {
			e.Time = 0
			seen[e]++
			if e.Kind != trace.KindDeliver {
				own[e.PID] = append(own[e.PID], e)
			}
		}
		for p := range n {
			var want []trace.Event
			for i := 0; i < k; i++ {
				tag := fmt.Sprintf("M%d.%d", p, i)
				want = append(want,
					trace.Event{Kind: trace.KindNote, PID: p, MsgTag: "SEND", Detail: tag},
					trace.Event{Kind: trace.KindBroadcast, PID: p, MsgTag: tag})
				for q := range n {
					if d := (trace.Event{Kind: trace.KindDeliver, PID: q, MsgTag: tag}); seen[d] != 1 {
						t.Errorf("spill=%v: %v recorded %d times, want once", spill, d, seen[d])
					}
				}
			}
			for _, tag := range chatters[p].got {
				want = append(want, trace.Event{Kind: trace.KindNote, PID: p, MsgTag: "RECV", Detail: tag})
			}
			if !slices.Equal(own[p], want) {
				t.Errorf("spill=%v: p%d's own events are recorded as\n%v\nwant\n%v", spill, p, own[p], want)
			}
		}
		if s := rec.Stats(); s.Broadcasts != n*k || s.Delivered != n*n*k || len(s.ByTag) != n*k {
			t.Errorf("spill=%v: stats %d broadcasts, %d deliveries, %d tags; want %d, %d, %d",
				spill, s.Broadcasts, s.Delivered, len(s.ByTag), n*k, n*n*k, n*k)
		}
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
