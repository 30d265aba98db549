package sim

import (
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// TestCrashScheduleDeterministicOrder registers many same-time crashes from
// a map and demands byte-identical executions across repeated runs.
// Simultaneous events are tie-broken by registration sequence, so scheduling
// straight from a map range (the bug CrashSchedule replaces) bakes the
// runtime's randomized iteration order into the trace.
func TestCrashScheduleDeterministicOrder(t *testing.T) {
	sched := map[PID]Time{0: 10, 1: 10, 2: 10, 3: 10, 5: 10, 6: 10}
	run := func() []trace.Event {
		rec := trace.NewRecorder()
		eng := New(Config{IDs: ident.Unique(8), Net: Async{MaxDelay: 7}, Seed: 3, Recorder: rec})
		for i := 0; i < 8; i++ {
			eng.AddProcess(&echoProc{})
		}
		eng.CrashSchedule(sched)
		eng.Run(100)
		return rec.Events()
	}
	base := run()
	var crashPIDs []int
	for _, ev := range base {
		if ev.Kind == trace.KindCrash {
			crashPIDs = append(crashPIDs, ev.PID)
		}
	}
	if len(crashPIDs) != len(sched) {
		t.Fatalf("recorded %d crash events, want %d", len(crashPIDs), len(sched))
	}
	for i := 1; i < len(crashPIDs); i++ {
		if crashPIDs[i-1] >= crashPIDs[i] {
			t.Fatalf("same-time crash events out of PID order: %v", crashPIDs)
		}
	}
	for rep := 0; rep < 10; rep++ {
		got := run()
		if len(got) != len(base) {
			t.Fatalf("rerun %d: event counts differ: %d vs %d", rep, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("rerun %d: event %d differs: %v vs %v", rep, i, got[i], base[i])
			}
		}
	}
}

// TestSyncCrashSameStepDeterministicOrder crashes several processes in the
// same lock-step step (registered deliberately out of PID order) and
// demands the recorded KindCrash events come out in PID order and the
// whole trace replays identically.
func TestSyncCrashSameStepDeterministicOrder(t *testing.T) {
	run := func() []trace.Event {
		rec := trace.NewRecorder()
		eng, _ := newLockstep(ident.Unique(6), 2, 4, rec)
		for _, p := range []PID{5, 1, 3} {
			eng.CrashDuringBroadcast(p, StepStart(2), 1)
		}
		eng.Run(StepEnd(4))
		return rec.Events()
	}
	base := run()
	var crashPIDs []int
	for _, ev := range base {
		if ev.Kind == trace.KindCrash {
			crashPIDs = append(crashPIDs, ev.PID)
		}
	}
	if want := []int{1, 3, 5}; !slices.Equal(crashPIDs, want) {
		t.Fatalf("crash events in order %v, want %v", crashPIDs, want)
	}
	for rep := 0; rep < 10; rep++ {
		if got := run(); !slices.Equal(got, base) {
			t.Fatalf("rerun %d: trace differs", rep)
		}
	}
}
