package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// wavePopRef is the engine as it delivered fan-out waves before a wave's
// entry was re-keyed in place: step pops the wave's entry before the wave
// runs, and the wave pushes it back — at the next wave's time and first
// copy, or at the resume copy's seq after a mid-wave stop — or leaves it
// out when the broadcast retires. Its wave methods are that code kept
// verbatim, with wavePopRef as the receiver; every other entry goes to the
// engine's step, and everything a wave calls (deliverCopy, rebase, the
// freelists, requeue) is the engine's. Processes talk to the engine
// directly: nothing a handler calls differs between the two.
type wavePopRef struct {
	*Engine
}

// Run is Engine.Run over the reference's loop.
func (e *wavePopRef) Run(until Time) int {
	return e.RunUntil(until, nil)
}

// RunUntil is Engine.RunUntil; step is the reference's. It makes no jump:
// the deployments it runs never snooze.
func (e *wavePopRef) RunUntil(until Time, done func() bool) int {
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

// step is Engine.step as it stood for an evFanout entry; any other entry
// is the engine's.
func (e *wavePopRef) step() StopReason {
	if e.queue[0].kind != evFanout {
		return e.Engine.step()
	}
	ev := e.pop()
	e.now = ev.time
	return e.deliverWave(ev)
}

// The wave methods below are fanout.go's as they stood, doc comments
// aside.

func (e *wavePopRef) deliverWave(ev event) StopReason {
	f := e.fanouts[ev.arg]
	if f.fates != nil {
		return e.deliverWaveWords(ev, f)
	}
	return e.deliverWaveFates(ev, f)
}
func (e *wavePopRef) deliverWaveWords(ev event, f fanoutRec) StopReason {
	if f.delay-f.base > codeMax {
		e.rebase(&f)
		e.fanouts[ev.arg] = f
	}
	tab := f.fates
	payload, tag, tagRef := f.payload, f.tag, f.tagRef
	cur := uint64(f.delay - f.base)
	next := uint64(0) // the next code in the table: 0 when there is none
	if above := f.codes >> (cur + 1); above != 0 {
		next = cur + 1 + uint64(bits.TrailingZeros16(above))
	}
	nextDelay, nextK := f.base+Time(next), -1
	switch next {
	case codeNone: // this is the last wave
		nextDelay, nextK = 0, 0
	case codeLate:
		nextDelay, nextK = f.lateDelay, int(f.lateK)
	}
	curW, nxtW := nibOnes*cur, nibOnes*next
	resumeI := int(f.resumeI)
	stop := StopNone
	k := 0 // scheduled copies in the words before this one
	for w, x := range tab {
		e.waveWords++
		nz := nonzeroNibbles(x)
		if nz == 0 {
			continue
		}
		i := 16 * w
		if nextK < 0 {
			if m := nibHigh &^ nonzeroNibbles(x^nxtW); m != 0 {
				nextK = k + bits.OnesCount64(nz&((m&-m)-1))
			}
		}
		m := nibHigh &^ nonzeroNibbles(x^curW)
		if i < resumeI { // delivered before a mid-wave stop
			if resumeI-i >= 16 {
				m = 0
			} else {
				m &= ^uint64(0) << (4 * (resumeI - i))
			}
		}
		for m != 0 {
			bit := bits.TrailingZeros64(m)
			to := i + bit>>2
			seq := f.baseSeq + uint64(k+bits.OnesCount64(nz&(1<<bit-1)))
			if stop == StopNone && e.processed >= e.cfg.MaxEvents {
				stop = StopMaxEvents
			}
			if stop != StopNone {
				e.suspendWave(ev, to, seq)
				return stop
			}
			m &= m - 1
			e.deliverCopy(to, payload, tag, tagRef, seq)
			if e.done != nil && e.done() {
				stop = StopPredicate // and find where the wave resumes
			}
		}
		k += bits.OnesCount64(nz)
	}
	e.finishWave(ev, &f, nextDelay, int32(nextK))
	return stop
}
func (e *wavePopRef) deliverWaveFates(ev event, f fanoutRec) StopReason {
	payload, tag, tagRef := f.payload, f.tag, f.tagRef
	stop := StopNone
	var nextDelay Time
	var nextK int32
	k := int32(0)
	for to := range e.procs {
		d, st := e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
		if st != fateDeliver {
			continue
		}
		ck := k
		k++
		if d < f.delay {
			continue // delivered in an earlier wave
		}
		if d > f.delay {
			if nextDelay == 0 || d < nextDelay {
				nextDelay, nextK = d, ck
			}
			continue
		}
		if to < int(f.resumeI) {
			continue // delivered before a mid-wave stop
		}
		if stop == StopNone && e.processed >= e.cfg.MaxEvents {
			stop = StopMaxEvents
		}
		if stop != StopNone {
			e.suspendWave(ev, to, f.baseSeq+uint64(ck))
			return stop
		}
		e.deliverCopy(to, payload, tag, tagRef, f.baseSeq+uint64(ck))
		if e.done != nil && e.done() {
			stop = StopPredicate // and find where the wave resumes
		}
	}
	e.finishWave(ev, &f, nextDelay, nextK)
	return stop
}
func (e *wavePopRef) suspendWave(ev event, to int, seq uint64) {
	e.fanouts[ev.arg].resumeI = int32(to)
	ev.seq = seq
	e.requeue(ev)
}
func (e *wavePopRef) finishWave(ev event, f *fanoutRec, next Time, nextK int32) {
	if next == 0 {
		e.freeFateTable(f.fates)
		e.freeFanout(ev.arg)
		return
	}
	r := &e.fanouts[ev.arg]
	r.delay, r.resumeI = next, 0
	ev.time, ev.seq = f.sent+next, f.baseSeq+uint64(nextK)
	e.requeue(ev)
}

// waveMsg is what the wave differential's modules broadcast: Echo marks a
// broadcast sent from inside a wave, which is never echoed again.
type waveMsg struct{ Echo bool }

func (m waveMsg) MsgTag() string {
	if m.Echo {
		return "ECHO"
	}
	return "WAVE"
}

// waveMod is a process of the wave differential's deployments. It
// broadcasts from Init and from its periodic timer; inside a wave — the
// only place a message arrives — it echoes every echo-th message it
// receives and arms a one-shot timer on the message after, so broadcasts,
// timers and, through a CrashDuringBroadcast arm, crashes happen between
// two copies of one wave. A recovery restarts its chain.
type waveMod struct {
	eng    *Engine
	env    Environment
	period Time
	echo   int
	count  int
	stats  *waveStats
}

// waveStats counts what the generator exercised, on the production runs.
type waveStats struct {
	echoes     int // broadcasts from inside a wave
	waveTimers int // timers armed from inside a wave
	waveCrash  int // CrashDuringBroadcast arms fired inside a wave
	midWave    int // stops that left a wave with copies delivered and copies owed
	wide       int // deployments whose fate tables span words
}

func (m *waveMod) Init(env Environment) {
	m.env = env
	env.Broadcast(waveMsg{})
	env.SetTimer(m.period, 0)
}

func (m *waveMod) OnRecover() { m.env.SetTimer(m.period, 0) }

func (m *waveMod) OnTimer(tag int) {
	m.count++
	if tag == 0 {
		m.env.Broadcast(waveMsg{})
		m.env.SetTimer(m.period, 0)
	}
}

func (m *waveMod) OnMessage(payload any) {
	m.count++
	if m.count%m.echo == 1 {
		m.env.SetTimer(Time(m.count%4), 1+m.count%5)
		m.stats.waveTimers++
	}
	if !payload.(waveMsg).Echo && m.count%m.echo == 0 {
		pid := m.env.PID()
		m.env.Broadcast(waveMsg{Echo: true})
		m.stats.echoes++
		if m.eng.Crashed(pid) {
			m.stats.waveCrash++
		}
	}
}

// runWaveCase builds seed's random deployment — 2–6 processes, or in one
// case in four 17–40 of them, over a network that ties delivery times
// often or spreads them past a fate table's range, a crash with recovery,
// a crash-stop and two CrashDuringBroadcast arms, and in one case in four
// no fate tables at all (every wave rescans) — on the engine or on
// wavePopRef, with a retaining or a stats-only recorder, and drives it in
// one Run, in predicate-sized slices, or into a MaxEvents cap.
func runWaveCase(seed int64, ref, retain bool, stats *waveStats) armRun {
	rng := rand.New(rand.NewSource(seed))
	n, echo := 2+rng.Intn(5), 2+rng.Intn(4)
	if rng.Intn(4) == 0 {
		n = 17 + rng.Intn(24)
		echo = 3*n + rng.Intn(n)
		stats.wide++
	}
	var net Model
	switch rng.Intn(4) {
	case 0:
		net = Timely{Delta: 1 + Time(rng.Intn(3))}
	case 1:
		net = Async{MaxDelay: 1 + Time(rng.Intn(20))}
	case 2:
		net = PartialSync{GST: Time(rng.Intn(20)), Delta: 1 + Time(rng.Intn(4))}
	default:
		net = Lossy{Base: Async{MaxDelay: 1 + Time(rng.Intn(6))}, P: 0.3}
	}
	maxEvents := 0
	drive := rng.Intn(3)
	if drive == 2 {
		maxEvents = 1 + rng.Intn(20*n*n)
	}
	rec := &trace.Recorder{KeepEvents: retain}
	eng := New(Config{IDs: ident.Balanced(n, 1+rng.Intn(n)), Net: net, Seed: seed, Recorder: rec, MaxEvents: maxEvents})
	if rng.Intn(4) == 0 {
		eng.fateBudget = 0
	}
	var drv fanDriver = eng
	if ref {
		drv = &wavePopRef{Engine: eng}
	}
	mods := make([]*waveMod, n)
	for p := range mods {
		mods[p] = &waveMod{eng: eng, period: 2 + Time(rng.Intn(6)), echo: echo, stats: stats}
		drv.AddProcess(mods[p])
	}
	churner := PID(rng.Intn(n))
	eng.CrashAt(churner, Time(3+rng.Intn(10)))
	eng.RecoverAt(churner, Time(10+rng.Intn(15)))
	eng.CrashAt(PID(rng.Intn(n)), Time(15+rng.Intn(20)))
	eng.CrashDuringBroadcast(PID(rng.Intn(n)), Time(rng.Intn(10)), 0.5)
	eng.CrashDuringBroadcast(PID(rng.Intn(n)), Time(10+rng.Intn(10)), 0.5)

	order := fnv.New64a()
	eng.AfterEvent(func(now Time, p PID) { fmt.Fprintln(order, now, p, eng.curSeq) })
	const horizon = 25
	midWave := func() {
		if len(eng.queue) > 0 && eng.queue[0].kind == evFanout && eng.fanouts[eng.queue[0].arg].resumeI > 0 {
			stats.midWave++
		}
	}
	switch drive {
	case 1:
		stride, k := 1+rng.Intn(7), 0
		slice := func() bool { k++; return k%stride == 0 }
		for drv.RunUntil(horizon, slice) > 0 && drv.Stopped() == StopPredicate {
			midWave()
		}
	default:
		drv.Run(horizon)
		midWave()
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

// TestWaveRekeyMatchesReference holds the engine, which delivers a wave
// with its entry parked at the heap root and re-keys the entry in place,
// to wavePopRef, which pops the entry first and pushes it back, on 500
// random deployments, each run four ways — engine and reference,
// retaining and stats-only recorder. Small and wide populations, tied and
// spread delays, fate tables and rescans; inside waves, processes
// broadcast, arm timers and crash mid-broadcast; a third of the runs stop
// on the MaxEvents guard and a third are driven in predicate-sized slices,
// so waves stop between two copies and resume. The runs must agree as
// TestTimerRearmMatchesReference's do (checkArmRuns).
//
// Verified to fail with each of three planted mutations in engine.go:
// rekey skipping the sift down (a re-keyed entry pops ahead of earlier
// ones: the traces diverge); noteQueueLen counting the parked entry, and
// step leaving a wave's entry unparked (either way MaxQueueLen counts the
// entry the reference popped, one too high).
func TestWaveRekeyMatchesReference(t *testing.T) {
	const cases = 500
	var cov waveStats
	var events int
	for seed := int64(1); seed <= cases; seed++ {
		got := runWaveCase(seed, false, true, &cov)
		want := runWaveCase(seed, true, true, &waveStats{})
		gotStats := runWaveCase(seed, false, false, &waveStats{})
		wantStats := runWaveCase(seed, true, false, &waveStats{})
		checkArmRuns(t, seed, want, got, gotStats, wantStats)
		events += got.eng.Processed()
	}
	t.Logf("%d cases (%d wide), %d events, %d mid-wave stops, %d echoes, %d timers and %d crashes inside a wave",
		cases, cov.wide, events, cov.midWave, cov.echoes, cov.waveTimers, cov.waveCrash)
	// The differential is vacuous unless each shape it names occurs.
	if cov.wide < cases/8 || cov.midWave < cases/10 || cov.echoes < cases || cov.waveTimers < cases || cov.waveCrash < cases/10 {
		t.Errorf("%+v: the generator exercises too little", cov)
	}
}
