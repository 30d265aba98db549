package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// beacon is a heartbeat under a Snooze hint that ends at until: its ticks
// are covered, so the engine may jump over them, and every tick after
// until is dispatched. Its output is either its dispatched-tick count,
// which changes only in OnTimer and is signalled there, or — for a beacon
// that does not signal — a function of the clock alone, as an oracle's.
type beacon struct {
	env           sim.Environment
	phase, period sim.Time
	until         sim.Time
	signals       bool
	ticks         int
}

func (b *beacon) Init(env sim.Environment) {
	b.env = env
	env.SetTimer(b.phase, 0)
	env.Snooze(b.period, 0, b.until)
}

func (b *beacon) OnTimer(tag int) {
	b.ticks++
	b.env.Changed()
	b.env.SetTimer(b.period, tag)
}

func (b *beacon) OnMessage(any) {}

func (b *beacon) SignalsChanges() bool { return b.signals }

// output is what the probes read.
func (b *beacon) output() int {
	if b.signals {
		return b.ticks
	}
	return int(b.env.Now() / 25)
}

// probeJumpRun runs beacons at the given phases, all of one period, to
// horizon under a stats-only recorder, with a StreamProbe over their
// outputs. With reference set it also registers the reference sampler,
// which reads every process after every event (and so keeps the engine
// on the tick path). It returns the probe's accepted samples, the
// reference's, and the ticks the engine jumped.
func probeJumpRun(signals, reference bool, phases ...sim.Time) (probe, ref []string, jumped uint64) {
	const period, until, horizon = 10, 3_000, 5_000
	eng := sim.New(sim.Config{IDs: ident.Unique(len(phases)), Seed: 3, Recorder: &trace.Recorder{}})
	bs := make([]*beacon, len(phases))
	for i, ph := range phases {
		bs[i] = &beacon{phase: ph, period: period, until: until, signals: signals}
		eng.AddProcess(bs[i])
	}
	get := func(p sim.PID) (int, bool) { return bs[p].output(), true }
	sp := fd.NewStreamProbe(eng, len(bs), get, func(a, b int) bool { return a == b })
	sp.Observe(func(p sim.PID, s fd.Sample[int]) {
		probe = append(probe, fmt.Sprintf("p%d=%d@%d", p, s.Value, s.Time))
	})
	if reference {
		last := make([]int, len(bs))
		seen := make([]bool, len(bs))
		eng.AfterEvent(func(now sim.Time, _ sim.PID) {
			for q := range bs {
				if v, _ := get(sim.PID(q)); !seen[q] || v != last[q] {
					last[q], seen[q] = v, true
					ref = append(ref, fmt.Sprintf("p%d=%d@%d", q, v, now))
				}
			}
		})
	}
	eng.Run(horizon)
	return probe, ref, eng.JumpedTicks()
}

// TestProbeJumpSamplesReference: a probe over processes that do not
// signal is an AfterEvent observer and keeps the engine off its
// snoozed-tick jump, since its sweep needs every clock advance; a probe
// over processes that all signal is an AfterSignal observer and does not,
// since a covered tick calls no handler and so signals nothing. Either way
// the probe accepts exactly the samples of the reference, which reads
// everyone after every event, and the same with or without the reference
// beside it.
func TestProbeJumpSamplesReference(t *testing.T) {
	for _, c := range []struct {
		name    string
		signals bool
		jumps   bool
	}{
		{name: "unsignalled probe", signals: false, jumps: false},
		{name: "signalling probes only", signals: true, jumps: true},
	} {
		alone, _, jumped := probeJumpRun(c.signals, false, 1, 3, 3, 7)
		beside, ref, refJumped := probeJumpRun(c.signals, true, 1, 3, 3, 7)
		if refJumped != 0 {
			t.Fatalf("%s: %d ticks jumped beside the reference's AfterEvent observer", c.name, refJumped)
		}
		if (jumped > 0) != c.jumps {
			t.Fatalf("%s: %d ticks jumped, want jumping %v", c.name, jumped, c.jumps)
		}
		if len(ref) < 8 {
			t.Fatalf("%s: the reference accepted only %v", c.name, ref)
		}
		if !reflect.DeepEqual(beside, ref) {
			t.Fatalf("%s: the probe beside the reference accepted\n %v\nthe reference\n %v", c.name, beside, ref)
		}
		if !reflect.DeepEqual(alone, ref) {
			t.Fatalf("%s: the probe alone (%d ticks jumped) accepted\n %v\nthe reference\n %v", c.name, jumped, alone, ref)
		}
		t.Logf("%s: %d samples, %d ticks jumped", c.name, len(ref), jumped)
	}
}
