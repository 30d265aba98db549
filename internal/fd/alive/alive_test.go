package alive

import (
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

// runAlive executes Figure 3 on n unique-id processes with the given crash
// schedule and verifies class 𝔈 via the checker.
func runAlive(t *testing.T, n int, crashes map[sim.PID]sim.Time, net sim.Model, seed int64, horizon sim.Time) (fd.Result, error) {
	t.Helper()
	ids := ident.Unique(n)
	eng := sim.New(sim.Config{IDs: ids, Net: net, Seed: seed})
	dets := make([]*Detector, n)
	for i := range dets {
		dets[i] = New()
		eng.AddProcess(dets[i])
	}
	eng.CrashSchedule(crashes)
	probe := fd.NewProbe(eng, n, func(p sim.PID) ([]ident.ID, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Alive(), true
	}, slices.Equal)
	eng.Run(horizon)
	truth := fd.NewGroundTruth(ids, crashes)
	return fd.CheckAliveList(truth, probe)
}

func TestNoFailuresAllRanked(t *testing.T) {
	if _, err := runAlive(t, 5, nil, sim.Async{MaxDelay: 8}, 1, 500); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedSinkBelowCorrect(t *testing.T) {
	crashes := map[sim.PID]sim.Time{1: 100, 3: 150}
	if _, err := runAlive(t, 6, crashes, sim.Async{MaxDelay: 6}, 2, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestManySeedsAndSchedules(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		crashes := map[sim.PID]sim.Time{
			0:                   50 + sim.Time(seed*10),
			sim.PID(seed%4) + 1: 200,
		}
		if _, err := runAlive(t, 6, crashes, sim.Async{MaxDelay: 10}, seed, 1500); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStabilizationAfterLastCrash(t *testing.T) {
	crashes := map[sim.PID]sim.Time{2: 300}
	res, err := runAlive(t, 4, crashes, sim.Async{MaxDelay: 5}, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.StabilizationTime < 300 {
		t.Errorf("stabilized at %d, before the crash at 300 — suspicious sampling", res.StabilizationTime)
	}
}

// TestSteadyStateZeroAlloc pins that Figure 3's periodic task costs no heap
// allocation once the alive lists are full: each Detector broadcasts the
// box it made in Init, so neither the ALIVE boxing nor the engine's
// fan-out allocates per period.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const n = 8
	eng := sim.New(sim.Config{IDs: ident.Unique(n), Net: sim.Async{MaxDelay: 4}, Seed: 42})
	for i := 0; i < n; i++ {
		eng.AddProcess(New())
	}
	horizon := sim.Time(1000)
	eng.Run(horizon) // warm-up: full alive lists, steady-state queue
	before := eng.Processed()
	avg := testing.AllocsPerRun(20, func() {
		horizon += 200
		eng.Run(horizon)
	})
	if eng.Processed() == before {
		t.Fatal("measurement processed no events")
	}
	if avg != 0 {
		t.Fatalf("ALIVE steady state allocates %.1f allocs/run, want 0", avg)
	}
}

func TestMoveToFrontSemantics(t *testing.T) {
	d := New()
	// Drive OnMessage directly; Init is not needed for list maintenance.
	d.OnMessage(Msg{ID: "a"})
	d.OnMessage(Msg{ID: "b"})
	d.OnMessage(Msg{ID: "c"})
	want := []ident.ID{"c", "b", "a"}
	if got := d.Alive(); !slices.Equal(got, want) {
		t.Fatalf("Alive = %v, want %v", got, want)
	}
	d.OnMessage(Msg{ID: "a"}) // move, not duplicate
	want = []ident.ID{"a", "c", "b"}
	if got := d.Alive(); !slices.Equal(got, want) {
		t.Fatalf("Alive = %v, want %v", got, want)
	}
	if got := d.Alive(); len(got) != 3 {
		t.Fatalf("duplicate inserted: %v", got)
	}
}

func TestIgnoresForeignPayloads(t *testing.T) {
	d := New()
	d.OnMessage(struct{ X int }{1})
	if len(d.Alive()) != 0 {
		t.Error("foreign payload mutated the alive list")
	}
}

func TestAliveReturnsCopy(t *testing.T) {
	d := New()
	d.OnMessage(Msg{ID: "a"})
	got := d.Alive()
	got[0] = "mutated"
	if d.Alive()[0] != "a" {
		t.Error("Alive must return a defensive copy")
	}
}
