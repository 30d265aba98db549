package core

import (
	"crypto/sha256"
	"hash"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// bound is a deployed node as the snooze differential binds it: it counts
// the timers dispatched to the node and, when unsnoozed, hands the node an
// environment whose Snooze is a no-op, so the engine dispatches every
// heartbeat — the tick chain as it ran before the engine took the hint.
type bound struct {
	sim.Process
	unsnoozed bool
	timers    *int
}

func (b bound) Init(env sim.Environment) {
	if b.unsnoozed {
		env = unsnoozedEnv{env}
	}
	b.Process.Init(env)
}

func (b bound) OnTimer(tag int) {
	*b.timers++
	b.Process.OnTimer(tag)
}

func (b bound) OnRecover() {
	if r, ok := b.Process.(sim.Recoverer); ok {
		r.OnRecover()
	}
}

type unsnoozedEnv struct{ sim.Environment }

func (unsnoozedEnv) Snooze(sim.Time, int, sim.Time) {}

// snoozeSide builds one side of the differential: every run it deploys
// streams its full text trace into a sha256, and counts the timers its
// nodes were dispatched.
type snoozeSide struct {
	unsnoozed bool
	recs      []*trace.Recorder
	sums      []hash.Hash
	timers    map[*sim.Engine]*int
}

func (s *snoozeSide) deploy() deploy {
	s.timers = make(map[*sim.Engine]*int)
	return deploy{
		rec: func() *trace.Recorder {
			h := sha256.New()
			s.recs = append(s.recs, trace.NewSpillRecorder(trace.NewWriterSink(h), 0))
			s.sums = append(s.sums, h)
			return s.recs[len(s.recs)-1]
		},
		bind: func(eng *sim.Engine, node sim.Process) {
			n := s.timers[eng]
			if n == nil {
				n = new(int)
				s.timers[eng] = n
			}
			eng.AddProcess(bound{Process: node, unsnoozed: s.unsnoozed, timers: n})
		},
	}
}

// snoozeRun is what the differential compares of one finished run.
type snoozeRun struct {
	trace      [sha256.Size]byte
	stats      trace.Stats
	processed  int
	maxQueue   int
	stopped    sim.StopReason
	outcomes   []Outcome
	rounds     []int
	rejoining  []bool
	dispatched int
}

func finish(t *testing.T, r memoRun, rec *trace.Recorder, sum hash.Hash, dispatched int) snoozeRun {
	t.Helper()
	if err := rec.Flush(); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	out := observe(r, rec.Stats())
	out.dispatched = dispatched
	sum.Sum(out.trace[:0])
	return out
}

// observe is what both differentials compare of a finished run but the
// trace and the dispatch count.
func observe(r memoRun, stats trace.Stats) snoozeRun {
	out := snoozeRun{stats: stats, processed: r.eng.Processed(), maxQueue: r.eng.MaxQueueLen(), stopped: r.eng.Stopped()}
	for _, inst := range r.insts {
		sk := skeletonOf(inst)
		out.outcomes = append(out.outcomes, sk.outcome)
		out.rounds = append(out.rounds, sk.round)
		out.rejoining = append(out.rejoining, sk.rejoining)
	}
	return out
}

// TestSnoozeMatchesTickChain runs every deployment of the step memo's
// differential — the variant grid, the hunt corpus's consensus entries and
// 2,000 seeded deployments — twice: as it runs, with the engine re-arming
// the heartbeats a quiet process snoozed, and with Snooze a no-op, so that
// every heartbeat is dispatched. The two must agree on the full text
// trace (timer lines included), Stats, Processed, the queue high-water
// mark, the stop reason, and every process's outcome, round and rejoin
// flag; after every event of the snoozing run, snoozed ticks included,
// stepRef on a tap must find nothing to fire. The snoozing run must also
// actually skip dispatches, or the test compares nothing.
//
// Verified to fail when the engine keeps a snooze across a delivered copy
// (a decision that arrives during a snooze leaves the heartbeat re-arming
// after the process stopped it) and when fireTimer compares until with <=
// (a heartbeat at the instant an oracle changes is not dispatched).
func TestSnoozeMatchesTickChain(t *testing.T) {
	snoozed, ticks := 0, 0
	compare := func(build func(d deploy) []memoRun) {
		live, ref := &snoozeSide{}, &snoozeSide{unsnoozed: true}
		liveRuns, refRuns := build(live.deploy()), build(ref.deploy())
		for i, r := range liveRuns {
			r.run(t)
			rr := refRuns[i]
			if rr.done == nil {
				rr.eng.Run(rr.horizon)
			} else {
				rr.eng.RunUntil(rr.horizon, rr.done)
			}
			got := finish(t, r, live.recs[i], live.sums[i], *live.timers[r.eng])
			want := finish(t, rr, ref.recs[i], ref.sums[i], *ref.timers[rr.eng])
			if want.dispatched != want.stats.Timers {
				t.Fatalf("%s: the reference dispatched %d of %d timers", r.name, want.dispatched, want.stats.Timers)
			}
			snoozed += got.stats.Timers - got.dispatched
			ticks += got.stats.Timers
			got.dispatched, want.dispatched = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: snoozing run differs from the tick chain:\n got  %+v\n want %+v", r.name, got, want)
			}
		}
	}
	compare(func(d deploy) []memoRun { return fixedRuns(t, d) })
	for seed := int64(1); seed <= int64(seededDeployments()); seed++ {
		compare(func(d deploy) []memoRun { return []memoRun{seededRun(seed, d)} })
	}
	if snoozed == 0 {
		t.Fatal("no heartbeat was snoozed")
	}
	t.Logf("%d of %d timer events snoozed", snoozed, ticks)
}

// TestSnoozeJumpMatchesTickPath is the stats-only side of
// TestSnoozeMatchesTickChain, whose streamed text trace makes the recorder
// retain and so keeps the engine from jumping over cycles of snoozed ticks.
// Over the same deployments, each with a stats-only recorder, it runs
// every one twice: as it runs, where the engine may jump, and with a no-op
// AfterEvent observer, which keeps it on the tick path. The two must agree
// on Stats, Processed, the queue high-water mark, the stop reason, and
// every process's outcome, round and rejoin flag; the observed run must
// jump nothing and the other runs, together, something.
//
// Verified to fail when the jump takes one cycle more than fit, and when a
// hint's until or the horizon does not bound it. No deployment here stops
// at MaxEvents; TestJumpMatchesTickPath covers that bound.
func TestSnoozeJumpMatchesTickPath(t *testing.T) {
	var jumped, ticks uint64
	finish := func(r memoRun, rec *trace.Recorder) snoozeRun {
		if r.done == nil {
			r.eng.Run(r.horizon)
		} else {
			r.eng.RunUntil(r.horizon, r.done)
		}
		return observe(r, rec.Stats())
	}
	compare := func(build func(d deploy) []memoRun) {
		var recs []*trace.Recorder
		d := deploy{rec: func() *trace.Recorder {
			recs = append(recs, &trace.Recorder{})
			return recs[len(recs)-1]
		}}
		liveRuns := build(d)
		refRuns := build(d)
		for i, r := range liveRuns {
			rr := refRuns[i]
			rr.eng.AfterEvent(func(sim.Time, sim.PID) {})
			got, want := finish(r, recs[i]), finish(rr, recs[len(liveRuns)+i])
			if n := rr.eng.JumpedTicks(); n != 0 {
				t.Fatalf("%s: %d ticks jumped with an observer registered", r.name, n)
			}
			jumped += r.eng.JumpedTicks()
			ticks += uint64(got.stats.Timers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: jumping run differs from the tick path:\n got  %+v\n want %+v", r.name, got, want)
			}
		}
	}
	compare(func(d deploy) []memoRun { return fixedRuns(t, d) })
	for seed := int64(1); seed <= int64(seededDeployments()); seed++ {
		compare(func(d deploy) []memoRun { return []memoRun{seededRun(seed, d)} })
	}
	if jumped == 0 {
		t.Fatal("no tick was jumped")
	}
	t.Logf("%d of %d timer events jumped", jumped, ticks)
}
