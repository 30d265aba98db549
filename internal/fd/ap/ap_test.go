package ap

import (
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

func runAP(t *testing.T, n int, crashes map[sim.PID]int, seed int64, steps int) (fd.Result, error) {
	t.Helper()
	ids := ident.AnonymousN(n)
	eng := sim.New(sim.LockstepConfig(sim.Config{IDs: ids, Seed: seed}, steps))
	dets := make([]*Detector, n)
	for i := range dets {
		dets[i] = New()
		eng.AddProcess(sim.NewLockstep(dets[i]))
	}
	crashPids := make([]sim.PID, 0, len(crashes))
	for p := range crashes {
		crashPids = append(crashPids, p)
	}
	slices.Sort(crashPids)
	crashTimes := make(map[sim.PID]sim.Time)
	for _, p := range crashPids {
		eng.CrashDuringBroadcast(p, sim.StepStart(crashes[p]), 0.5)
		crashTimes[p] = sim.StepStart(crashes[p])
	}
	probe := fd.NewProbe(eng, n, func(p sim.PID) (int, bool) {
		if eng.Crashed(p) || !dets[p].valid {
			return 0, false
		}
		return dets[p].AliveCount(), true
	}, func(a, b int) bool { return a == b })
	eng.Run(sim.StepEnd(steps))
	if eng.Stopped() != sim.StopHorizon {
		t.Fatalf("run stopped by %v before the end of step %d", eng.Stopped(), steps)
	}
	return fd.CheckAP(fd.NewGroundTruth(ids, crashTimes), probe)
}

func TestFailureFree(t *testing.T) {
	if _, err := runAP(t, 5, nil, 1, 8); err != nil {
		t.Fatal(err)
	}
}

func TestConvergesToCorrectCount(t *testing.T) {
	crashes := map[sim.PID]int{1: 2, 3: 5}
	if _, err := runAP(t, 6, crashes, 2, 12); err != nil {
		t.Fatal(err)
	}
}

func TestManySchedules(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		crashes := map[sim.PID]int{
			sim.PID(seed % 5): 2,
			5:                 int(seed%3) + 3,
		}
		if _, err := runAP(t, 6, crashes, seed, 15); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCountIsUpperBoundDuringCascade(t *testing.T) {
	// A crash per step: at no sampled instant may the estimate dip below
	// the live population (CheckAP verifies exactly this safety clause).
	crashes := map[sim.PID]int{0: 2, 1: 3, 2: 4, 3: 5}
	if _, err := runAP(t, 8, crashes, 7, 12); err != nil {
		t.Fatal(err)
	}
}

func TestValidFlag(t *testing.T) {
	d := New()
	if d.valid {
		t.Error("detector valid before any step")
	}
	d.StepRecv([]any{Msg{}, Msg{}})
	if !d.valid || d.AliveCount() != 2 {
		t.Errorf("AliveCount = %d, valid = %v", d.AliveCount(), d.valid)
	}
}
