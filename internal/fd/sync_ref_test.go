package fd_test

// An external test package: a Figure 7 run needs fd/hsigma, which imports
// fd.

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/fd/hsigma"
	"repro/internal/ident"
	"repro/internal/sim"
)

// refSyncProbe is NewSyncProbe's loop from before it was moved onto
// StreamProbe.Feed, kept verbatim as the independent reference (refProbe
// in stream_test.go is its event-driven sibling).
func refSyncProbe[T any](eng *sim.SyncEngine, n int, get func(p sim.PID) (T, bool), eq func(a, b T) bool) *refSyncHistories[T] {
	pr := &refSyncHistories[T]{histories: make([][]fd.Sample[T], n)}
	eng.AfterStep(func(step int) {
		for p := 0; p < n; p++ {
			v, ok := get(sim.PID(p))
			if !ok {
				continue
			}
			h := pr.histories[p]
			if len(h) > 0 && eq(h[len(h)-1].Value, v) {
				continue
			}
			pr.histories[p] = append(h, fd.Sample[T]{Time: sim.Time(step), Value: v})
		}
	})
	return pr
}

type refSyncHistories[T any] struct {
	histories [][]fd.Sample[T]
}

// sameAsSyncReference requires a sync probe's histories and final view to
// be the reference's, sample for sample.
func sameAsSyncReference[T any](t *testing.T, name string, ref *refSyncHistories[T], got *fd.Probe[T], eq func(a, b T) bool) {
	t.Helper()
	changes := 0
	for p, want := range ref.histories {
		h := got.History(sim.PID(p))
		if len(h) != len(want) {
			t.Fatalf("%s p%d: stored %d samples, reference %d", name, p, len(h), len(want))
		}
		for i := range want {
			if h[i].Time != want[i].Time || !eq(h[i].Value, want[i].Value) {
				t.Fatalf("%s p%d sample %d: %v@%d, reference %v@%d",
					name, p, i, h[i].Value, h[i].Time, want[i].Value, want[i].Time)
			}
		}
		last, ok := got.Last(sim.PID(p))
		if ok != (len(want) > 0) {
			t.Fatalf("%s p%d: Last ok=%v with %d reference samples", name, p, ok, len(want))
		}
		if ok {
			if w := want[len(want)-1]; !eq(last, w.Value) || got.LastChange(sim.PID(p)) != w.Time {
				t.Fatalf("%s p%d: final view %v@%d, reference %v@%d",
					name, p, last, got.LastChange(sim.PID(p)), w.Value, w.Time)
			}
			changes += len(want) - 1
		}
	}
	if changes == 0 {
		t.Fatalf("%s: no output ever changed: the run cannot tell samplers apart", name)
	}
}

// TestSyncProbeMatchesReference is TestStreamProbeMatchesProbeLive for the
// lock-step sampler: on Figure 7 runs where two processes crash
// mid-broadcast (so survivors gather different multisets and h_quora keeps
// changing for several steps), NewSyncProbe and the reference loop store
// identical histories, and CheckHSigma rules identically on both.
func TestSyncProbeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ids := ident.Balanced(7, 3)
		n := ids.N()
		eng := sim.NewSync(sim.SyncConfig{IDs: ids, Seed: seed})
		dets := make([]*hsigma.Detector, n)
		for i := range dets {
			dets[i] = hsigma.New()
			eng.AddProcess(dets[i])
		}
		eng.CrashAtStep(0, 2, 0.5)
		eng.CrashAtStep(3, 4, 0.3)
		getQuora := func(p sim.PID) ([]fd.QuorumPair, bool) {
			if eng.Crashed(p) {
				return nil, false
			}
			return dets[p].Quora(), true
		}
		getLabels := func(p sim.PID) ([]fd.Label, bool) {
			if eng.Crashed(p) {
				return nil, false
			}
			return dets[p].Labels(), true
		}
		refQuora := refSyncProbe(eng, n, getQuora, fd.QuoraEqual)
		refLabels := refSyncProbe(eng, n, getLabels, fd.LabelsEqual)
		quora := fd.NewSyncProbe(eng, n, getQuora, fd.QuoraEqual)
		labels := fd.NewSyncProbe(eng, n, getLabels, fd.LabelsEqual)

		eng.RunSteps(12)

		sameAsSyncReference(t, "h_quora", refQuora, quora, fd.QuoraEqual)
		sameAsSyncReference(t, "h_labels", refLabels, labels, fd.LabelsEqual)

		truth := fd.NewGroundTruth(ids, map[sim.PID]sim.Time{0: 2, 3: 4})
		got, gotErr := fd.CheckHSigma(truth, quora, labels)
		want, wantErr := fd.CheckHSigma(truth, fd.NewStaticProbe(refQuora.histories), fd.NewStaticProbe(refLabels.histories))
		if got != want || (gotErr == nil) != (wantErr == nil) || gotErr != nil {
			t.Errorf("seed %d: HΣ verdicts: probe %v %v, reference %v %v", seed, got, gotErr, want, wantErr)
		}
	}
}
