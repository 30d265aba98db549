package hsigma

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

type syncCrash struct {
	pid         sim.PID
	step        int
	deliverProb float64
}

// runHSigma executes Figure 7 and verifies all four HΣ properties.
func runHSigma(t *testing.T, ids ident.Assignment, crashes []syncCrash, seed int64, steps int) (fd.Result, error) {
	t.Helper()
	eng := sim.New(sim.LockstepConfig(sim.Config{IDs: ids, Seed: seed}, steps))
	dets := make([]*Detector, ids.N())
	for i := range dets {
		dets[i] = New()
		eng.AddProcess(sim.NewLockstep(dets[i]))
	}
	crashTimes := make(map[sim.PID]sim.Time)
	for _, c := range crashes {
		eng.CrashDuringBroadcast(c.pid, sim.StepStart(c.step), c.deliverProb)
		crashTimes[c.pid] = sim.StepStart(c.step)
	}
	quora := fd.NewProbe(eng, ids.N(), func(p sim.PID) ([]fd.QuorumPair, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Quora(), true
	}, fd.QuoraEqual)
	labels := fd.NewProbe(eng, ids.N(), func(p sim.PID) ([]fd.Label, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Labels(), true
	}, fd.LabelsEqual)
	eng.Run(sim.StepEnd(steps))
	if eng.Stopped() != sim.StopHorizon {
		t.Fatalf("run stopped by %v before the end of step %d", eng.Stopped(), steps)
	}
	truth := fd.NewGroundTruth(ids, crashTimes)
	return fd.CheckHSigma(truth, quora, labels)
}

func TestFailureFree(t *testing.T) {
	if _, err := runHSigma(t, ident.Balanced(5, 2), nil, 1, 10); err != nil {
		t.Fatal(err)
	}
}

func TestWithCleanCrashes(t *testing.T) {
	crashes := []syncCrash{{pid: 1, step: 3, deliverProb: 1}, {pid: 4, step: 6, deliverProb: 1}}
	if _, err := runHSigma(t, ident.Balanced(6, 3), crashes, 2, 15); err != nil {
		t.Fatal(err)
	}
}

func TestWithPartialBroadcastCrashes(t *testing.T) {
	// Crashing mid-broadcast makes different survivors gather different
	// multisets in the crash step — the interesting case for HΣ safety.
	for seed := int64(0); seed < 10; seed++ {
		crashes := []syncCrash{
			{pid: 0, step: 2, deliverProb: 0.5},
			{pid: 3, step: 4, deliverProb: 0.3},
		}
		if _, err := runHSigma(t, ident.Balanced(7, 3), crashes, seed, 15); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAnonymousExtreme(t *testing.T) {
	crashes := []syncCrash{{pid: 2, step: 3, deliverProb: 0.5}}
	if _, err := runHSigma(t, ident.AnonymousN(5), crashes, 3, 12); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueExtreme(t *testing.T) {
	crashes := []syncCrash{{pid: 2, step: 3, deliverProb: 0.5}}
	if _, err := runHSigma(t, ident.Unique(5), crashes, 4, 12); err != nil {
		t.Fatal(err)
	}
}

func TestLivenessQuorumAppearsOneStepAfterLastCrash(t *testing.T) {
	// Theorem 6's liveness argument: from the step after the last crash,
	// every correct process gathers exactly I(Correct).
	ids := ident.Balanced(5, 2)
	eng := sim.New(sim.LockstepConfig(sim.Config{IDs: ids, Seed: 5}, 5))
	dets := make([]*Detector, ids.N())
	for i := range dets {
		dets[i] = New()
		eng.AddProcess(sim.NewLockstep(dets[i]))
	}
	eng.CrashDuringBroadcast(1, sim.StepStart(4), 0.5)
	eng.Run(sim.StepEnd(5))
	truth := fd.NewGroundTruth(ids, map[sim.PID]sim.Time{1: sim.StepStart(4)})
	want := truth.EventuallyUpIDs() // I(Correct): the crash is final
	for _, p := range truth.Correct() {
		found := false
		for _, pair := range dets[p].Quora() {
			if pair.M.Equal(want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("process %d lacks the (I(Correct), I(Correct)) pair after last crash", p)
		}
	}
}

// TestOutputsReplacedNeverWritten pins fd.HSigma's contract on Figure 7:
// h_quora and h_labels are handed out as held, so two queries return the
// same slices, and a step that extends them leaves the slices returned
// before it reading as they did.
func TestOutputsReplacedNeverWritten(t *testing.T) {
	d := New()
	d.StepRecv([]any{Msg{ID: "a"}, Msg{ID: "b"}})
	q, l := d.Quora(), d.Labels()
	if &d.Quora()[0] != &q[0] || &d.Labels()[0] != &l[0] {
		t.Error("two queries with no step between them returned different slices")
	}
	d.StepRecv([]any{Msg{ID: "a"}})
	if len(q) != 1 || q[0].Label != "a*1|b*1" || !q[0].M.Equal(ident.Assignment{"a", "b"}.I()) || len(l) != 1 || l[0] != "a*1|b*1" {
		t.Errorf("outputs returned before a step changed under their holder: %v %v", q, l)
	}
	if len(d.Quora()) != 2 || len(d.Labels()) != 2 {
		t.Errorf("the step did not extend the outputs: %v %v", d.Quora(), d.Labels())
	}
}

func TestEmptyStepIgnored(t *testing.T) {
	d := New()
	d.StepRecv(nil)
	if len(d.Quora()) != 0 || len(d.Labels()) != 0 {
		t.Error("empty receive set must not create an empty quorum")
	}
}
