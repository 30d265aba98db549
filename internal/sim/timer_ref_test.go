package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// timerRef is the engine as it fired timers before they were re-armed in
// place: step pops a timer's entry before the handler runs, every setTimer
// is a push of a fresh entry, and the timer is recorded at once — through
// Record, one shared-counter write per timer on a stats-only recorder —
// instead of tallied. It is that code kept verbatim, with timerRef as the
// receiver, and it wraps the engine the way eagerRef does: a process is
// handed an Environment whose SetTimer goes through timerRef.setTimer, and
// timerRef.RunUntil is the engine's run loop popping timer entries itself
// and handing every other entry to the engine's step. The engine parks no
// entry under it, so the engine's own setTimer (a process arming a timer
// through another's *Env) is the same push.

type timerRef struct {
	*Engine
}

// timerRefProc hands the process it wraps an Environment whose timers go
// through the reference. It forwards OnRecover, which the embedded
// interface would hide from the engine.
type timerRefProc struct {
	Process
	ref *timerRef
}

func (p timerRefProc) Init(env Environment) {
	p.Process.Init(&timerRefEnv{Env: env.(*Env), ref: p.ref})
}

func (p timerRefProc) OnRecover() {
	if r, ok := p.Process.(Recoverer); ok {
		r.OnRecover()
	}
}

type timerRefEnv struct {
	*Env
	ref *timerRef
}

func (v *timerRefEnv) SetTimer(d Time, tag int) { v.ref.setTimer(v.pid, d, tag) }

// AddProcess binds p behind the wrapper.
func (e *timerRef) AddProcess(p Process) PID {
	return e.Engine.AddProcess(timerRefProc{Process: p, ref: e})
}

// Run is Engine.Run over the reference's loop.
func (e *timerRef) Run(until Time) int {
	return e.RunUntil(until, nil)
}

// RunUntil is Engine.RunUntil; step is the reference's.
func (e *timerRef) RunUntil(until Time, done func() bool) int {
	e.start()
	startProcessed := e.processed
	e.done = done
	e.stopped = StopQuiescent
	for len(e.queue) > 0 {
		if e.processed >= e.cfg.MaxEvents {
			e.stopped = StopMaxEvents
			break
		}
		if e.queue[0].time > until {
			e.stopped = StopHorizon
			break
		}
		if r := e.step(); r != StopNone {
			e.stopped = r
			break
		}
	}
	e.done = nil
	e.flushTally()
	if e.stopped == StopQuiescent {
		for i := range e.faults {
			e.faults[i].partial = nil
		}
	}
	return e.processed - startProcessed
}

// step is Engine.step as it stood for an evTimer entry; any other entry is
// the engine's.
func (e *timerRef) step() StopReason {
	if e.queue[0].kind != evTimer {
		return e.Engine.step()
	}
	ev := e.pop()
	e.now = ev.time
	e.curSeq = int64(ev.seq)
	e.processed++
	pid := PID(ev.pid)
	switch ev.kind {
	case evTimer:
		var detail string
		if e.retain {
			detail = timerDetail(int(ev.arg))
		}
		if e.crashed[pid] {
			// A timer on a down process is dropped, exactly like a message
			// copy — and, like one, it leaves a trace: silently vanishing
			// timers made crash interleavings unreproducible from traces.
			e.record(trace.KindTimerDrop, int(pid), "", detail)
			break
		}
		e.record(trace.KindTimer, int(pid), "", detail)
		e.procs[pid].OnTimer(int(ev.arg))
	}
	e.notifyAfter(pid)
	if e.done != nil && e.done() {
		return StopPredicate
	}
	return StopNone
}

// setTimer is Engine.setTimer as it stood: always a push.
func (e *timerRef) setTimer(p PID, d Time, tag int) {
	if d < 1 {
		d = 1
	}
	if tag != int(int32(tag)) {
		panic("sim: timer tag exceeds 32 bits")
	}
	e.push(event{time: e.now + d, kind: evTimer, pid: int32(p), arg: int32(tag)})
}

// armMsg is what the differential's timer modules broadcast.
type armMsg struct{ N int }

func (armMsg) MsgTag() string { return "ARM" }

// Timer-handler shapes of armMod.
const (
	armBroadcastFirst = iota // broadcast, then re-arm
	armRearmFirst            // re-arm, then broadcast
	armTwo                   // arm two timers, the second one-shot
	armOnce                  // never re-arm: one timer at Init, one-shots from messages
	armPeer                  // arm a one-shot on another process, then re-arm
	armShapes
)

// armMod is a timer module of the differential's random deployments.
// Timer tag 0 is its periodic chain; any other tag is a one-shot. Every
// fifth message it receives arms a one-shot, so timers are set from
// message handlers too, and a recovery restarts the chain. It counts what
// it handled, and notes in stats whatever the coverage check asks for.
type armMod struct {
	eng    *Engine
	env    Environment
	shape  int
	period Time // 0..4; 0 is clamped to 1 by the engine
	count  int
	stats  *armStats
}

// armStats counts what the generator exercised, on the production runs.
type armStats struct {
	peerArms      int // timers armed on another process from a timer handler
	crashInHandle int // CrashDuringBroadcast arms fired inside a timer handler
}

func (m *armMod) Init(env Environment) {
	m.env = env
	env.SetTimer(m.period, 0)
}

func (m *armMod) OnMessage(any) {
	m.count++
	if m.count%5 == 0 {
		m.env.SetTimer(Time(m.count%3), 1+m.count%4)
	}
}

func (m *armMod) OnRecover() { m.env.SetTimer(m.period, 0) }

func (m *armMod) OnTimer(tag int) {
	m.count++
	if tag != 0 {
		return
	}
	pid := m.env.PID()
	wasUp := !m.eng.Crashed(pid)
	switch m.shape {
	case armBroadcastFirst:
		m.env.Broadcast(armMsg{N: m.count})
		m.env.SetTimer(m.period, 0)
	case armRearmFirst:
		m.env.SetTimer(m.period, 0)
		m.env.Broadcast(armMsg{N: m.count})
	case armTwo:
		m.env.SetTimer(m.period, 0)
		m.env.SetTimer(Time(m.count%3), 2)
		if m.count%2 == 0 {
			m.env.Broadcast(armMsg{N: m.count})
		}
	case armOnce:
		m.env.Broadcast(armMsg{N: m.count})
	case armPeer:
		peer := PID((int(pid) + 1 + m.count) % len(m.eng.procs))
		m.eng.Env(peer).SetTimer(Time(m.count%4), 1+m.count%5)
		m.stats.peerArms++
		m.env.SetTimer(m.period, 0)
	}
	if wasUp && m.eng.Crashed(pid) {
		m.stats.crashInHandle++
	}
}

// armRun is one run of a random deployment and everything it left behind.
type armRun struct {
	eng     *Engine
	rec     *trace.Recorder
	order   uint64 // hash of (time, process, seq) of every event, in order
	trace   [32]byte
	modules string
	stats   trace.Stats
}

// runArmCase builds seed's random deployment — 2–5 processes, each a bare
// armMod or a node of up to three, a network that ties delivery times
// often, a crash with recovery, a crash-stop and a CrashDuringBroadcast —
// on the engine or on timerRef, with a retaining or a stats-only recorder,
// and drives it in one Run, in predicate-sized slices, or into a MaxEvents
// cap.
func runArmCase(seed int64, ref, retain bool, stats *armStats) armRun {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	var net Model
	switch rng.Intn(3) {
	case 0:
		net = Timely{Delta: 1 + Time(rng.Intn(3))}
	case 1:
		net = Async{MaxDelay: 1 + Time(rng.Intn(6))}
	default:
		net = Lossy{Base: Async{MaxDelay: 1 + Time(rng.Intn(4))}, P: 0.3}
	}
	maxEvents := 0
	drive := rng.Intn(3)
	if drive == 2 {
		maxEvents = 1 + rng.Intn(300)
	}
	rec := &trace.Recorder{KeepEvents: retain}
	eng := New(Config{IDs: ident.Balanced(n, 1+rng.Intn(n)), Net: net, Seed: seed, Recorder: rec, MaxEvents: maxEvents})
	var drv fanDriver = eng
	if ref {
		drv = &timerRef{Engine: eng}
	}
	var mods []*armMod
	newMod := func() *armMod {
		m := &armMod{eng: eng, shape: rng.Intn(armShapes), period: Time(rng.Intn(5)), stats: stats}
		mods = append(mods, m)
		return m
	}
	for p := 0; p < n; p++ {
		k := rng.Intn(4)
		if k == 0 {
			drv.AddProcess(newMod())
			continue
		}
		node := NewNode()
		for i := 0; i < k; i++ {
			node.Add(fmt.Sprint("m", i), newMod())
		}
		drv.AddProcess(node)
	}
	churner := PID(rng.Intn(n))
	eng.CrashAt(churner, Time(3+rng.Intn(10)))
	eng.RecoverAt(churner, Time(10+rng.Intn(15)))
	eng.CrashAt(PID(rng.Intn(n)), Time(20+rng.Intn(20)))
	eng.CrashDuringBroadcast(PID(rng.Intn(n)), Time(rng.Intn(20)), 0.5)

	order := fnv.New64a()
	eng.AfterEvent(func(now Time, p PID) { fmt.Fprintln(order, now, p, eng.curSeq) })
	const horizon = 45
	switch drive {
	case 1:
		stride, k := 1+rng.Intn(7), 0
		slice := func() bool { k++; return k%stride == 0 }
		for drv.RunUntil(horizon, slice) > 0 && drv.Stopped() == StopPredicate {
		}
	default:
		drv.Run(horizon)
	}

	out := armRun{eng: eng, rec: rec, order: order.Sum64(), stats: rec.Stats()}
	var b bytes.Buffer
	if err := trace.WriteText(&b, rec.Events()); err != nil {
		panic(err)
	}
	out.trace = sha256.Sum256(b.Bytes())
	var ms bytes.Buffer
	for _, m := range mods {
		fmt.Fprint(&ms, m.count, " ")
	}
	out.modules = ms.String()
	return out
}

// TestTimerRearmMatchesReference holds the engine to timerRef, which pops
// a timer's entry before its handler runs and pushes every new timer, on
// 2,000 random deployments, each run four ways — engine and reference,
// retaining and stats-only recorder. Handlers broadcast before or after
// re-arming, arm two timers, never re-arm, or arm a timer on another
// process; a CrashDuringBroadcast arm fires inside timer handlers; a third
// of the runs stop on the MaxEvents guard, and a third are driven in
// predicate-sized slices. The runs must agree on the trace bytes, the
// (time, process, seq) order of every event, MaxQueueLen, Processed,
// Stopped, Now, every module's state, and the Stats of all four.
//
// Verified to fail with each of three planted mutations in engine.go:
// setTimer re-arming in place for any process while an entry is parked
// (the peer's timer fires on the parked entry's process); noteQueueLen
// counting the parked entry (MaxQueueLen one too high); RunUntil skipping
// flushTally on a MaxEvents stop (stats-only Timers, Delivered and Dropped
// short).
func TestTimerRearmMatchesReference(t *testing.T) {
	const cases = 2000
	var cov armStats
	var timerStops, maxStops, events int
	for seed := int64(1); seed <= cases; seed++ {
		got := runArmCase(seed, false, true, &cov)
		want := runArmCase(seed, true, true, &armStats{})
		gotStats := runArmCase(seed, false, false, &armStats{})
		wantStats := runArmCase(seed, true, false, &armStats{})
		if got.trace != want.trace {
			t.Fatalf("seed %d: traces diverge (sha256 %x, reference %x)", seed, got.trace[:6], want.trace[:6])
		}
		for _, r := range []armRun{got, gotStats, wantStats} {
			if r.order != want.order {
				t.Fatalf("seed %d: events processed in a different (time, process, seq) order", seed)
			}
			if g, w := r.eng.MaxQueueLen(), want.eng.MaxQueueLen(); g != w {
				t.Fatalf("seed %d: MaxQueueLen %d, reference %d", seed, g, w)
			}
			if g, w := r.eng.Processed(), want.eng.Processed(); g != w {
				t.Fatalf("seed %d: processed %d, reference %d", seed, g, w)
			}
			if r.eng.Stopped() != want.eng.Stopped() || r.eng.Now() != want.eng.Now() {
				t.Fatalf("seed %d: stopped %v at %d, reference %v at %d", seed, r.eng.Stopped(), r.eng.Now(), want.eng.Stopped(), want.eng.Now())
			}
			if r.modules != want.modules {
				t.Fatalf("seed %d: module states %s, reference %s", seed, r.modules, want.modules)
			}
			if g, w := fmt.Sprintf("%+v", r.stats), fmt.Sprintf("%+v", want.stats); g != w {
				t.Fatalf("seed %d: stats diverge:\n got %s\nwant %s", seed, g, w)
			}
		}
		events += got.eng.Processed()
		if got.eng.Stopped() == StopMaxEvents {
			maxStops++
			if got.eng.queue[0].kind == evTimer {
				timerStops++
			}
		}
	}
	t.Logf("%d cases, %d events, %d MaxEvents stops (%d on a timer), %d peer arms, %d crashes inside a timer handler",
		cases, events, maxStops, timerStops, cov.peerArms, cov.crashInHandle)
	// The differential is vacuous unless each shape it names occurs.
	if timerStops < cases/20 || cov.peerArms < cases || cov.crashInHandle < cases/20 {
		t.Errorf("%d MaxEvents stops on a timer, %d peer arms, %d crashes inside a timer handler: the generator exercises too little",
			timerStops, cov.peerArms, cov.crashInHandle)
	}
}
