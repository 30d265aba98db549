package experiments

import (
	hds "repro"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E16TimeoutAdaptation ablates Figure 6's timeout-adaptation rule (Lines
// 33–34): with a fixed timeout below the (unknown) network bound, rounds
// close before replies arrive and h_trusted flaps forever; the adaptive
// rule grows the timeout exactly until outdated replies stop. This is the
// mechanism behind Lemma 5.
func E16TimeoutAdaptation() (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  "Ablation: Figure 6 without timeout adaptation",
		Paper:  "Figure 6 Lines 33–34, Lemma 5; DESIGN.md §8",
		Header: []string{"variant", "δ", "◇HP̄ holds", "final |h_trusted| (want 4)", "output changes in last 25%", "final timeout"},
		Notes: []string{
			"A fixed timeout of 1 under δ=6 closes every round before any reply's round-trip completes: h_trusted collapses to the empty multiset and the class check fails (as it must — the ablated algorithm is not a ◇HP̄ implementation). A lucky large constant (20) works for THIS δ, but that is exactly the unknown-bound guess partial synchrony forbids; the adaptive rule needs no guess and settles just above the real round-trip for whatever δ the run has.",
		},
	}
	type variant struct {
		name  string
		make  func() *ohp.Detector
		delta sim.Time
	}
	variants := []variant{
		{"fixed timeout 1", func() *ohp.Detector { return ohp.NewFixedTimeout(1) }, 6},
		{"fixed timeout 20", func() *ohp.Detector { return ohp.NewFixedTimeout(20) }, 6},
		{"adaptive (paper)", ohp.New, 6},
		{"adaptive (paper)", ohp.New, 12},
	}
	const horizon sim.Time = 4000
	err := tableRows(&t, variants, func(_ int, v variant) []string {
		ids := ident.Balanced(4, 2)
		n := ids.N()
		eng := sim.New(sim.Config{IDs: ids, Net: sim.PartialSync{GST: 40, Delta: v.delta, PreLoss: 0.5}, Seed: 5})
		dets := make([]*ohp.Detector, n)
		for i := range dets {
			dets[i] = v.make()
			eng.AddProcess(dets[i])
		}
		truth := fd.NewGroundTruth(ids, nil)
		probe := fd.NewProbe(eng, n, func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
			return dets[p].Trusted(), true
		}, fd.MultisetEqual)
		eng.Run(horizon)

		_, err := fd.CheckDiamondHPbar(truth, probe)
		holds := "yes"
		if err != nil {
			holds = "no (stuck/flapping, as predicted)"
		}
		lateChanges := 0
		cutoff := horizon * 3 / 4
		for p := 0; p < n; p++ {
			for _, s := range probe.History(sim.PID(p)) {
				if s.Time >= cutoff {
					lateChanges++
				}
			}
		}
		var maxTO sim.Time
		for _, d := range dets {
			if d.Timeout() > maxTO {
				maxTO = d.Timeout()
			}
		}
		finalTrusted := dets[0].Trusted().Len()
		return []string{v.name, itoa(v.delta), holds, itoaI(finalTrusted), itoaI(lateChanges), itoa(maxTO)}
	})
	return t, err
}

// E17PhaseMessageBreakdown decomposes consensus traffic by message type
// for both algorithms on a common workload: where the homonymy surcharge
// (COORD) and the quorum machinery (PH1/PH2 sub-rounds) actually spend
// messages.
func E17PhaseMessageBreakdown() (Table, error) {
	t := Table{
		ID:     "E17",
		Title:  "Message-cost breakdown by phase/type",
		Paper:  "Figures 8 and 9 (cost anatomy)",
		Header: []string{"algorithm", "crashes", "COORD", "PH0", "PH1", "PH2", "DECIDE", "total"},
		Notes: []string{
			"Common workload: n=6, ℓ=3, stable detectors. Fig. 9's quorum phases re-broadcast per sub-round, so its PH1/PH2 counts grow when detector labels change mid-round; Fig. 8 instead pays fixed per-round quorum waits. DECIDE is the Task-T2 reliable broadcast relay (one per process that learns the decision).",
		},
	}
	type scenario struct {
		algo    string
		crashes map[sim.PID]sim.Time
	}
	scenarios := []scenario{
		{"fig8", nil},
		{"fig8", map[sim.PID]sim.Time{1: 1, 4: 2}},
		{"fig9", nil},
		{"fig9", map[sim.PID]sim.Time{1: 1, 4: 2}},
		{"fig9 (4 crashes)", map[sim.PID]sim.Time{0: 2, 1: 5, 2: 8, 3: 11}},
	}
	err := tableRows(&t, scenarios, func(i int, sc scenario) []string {
		stats, err := runBreakdown(sc.algo, sc.crashes, int64(100+i))
		if err != nil {
			return []string{sc.algo, itoaI(len(sc.crashes)), "✗ " + err.Error(), "-", "-", "-", "-", "-"}
		}
		return []string{
			sc.algo, itoaI(len(sc.crashes)),
			itoaI(stats.ByTag["COORD"]), itoaI(stats.ByTag["PH0"]),
			itoaI(stats.ByTag["PH1"]), itoaI(stats.ByTag["PH2"]),
			itoaI(stats.ByTag["DECIDE"]), itoaI(stats.Broadcasts),
		}
	})
	return t, err
}

func runBreakdown(algo string, crashes map[sim.PID]sim.Time, seed int64) (trace.Stats, error) {
	e := hds.Experiment{Algo: "fig9", IDs: ident.Balanced(6, 3), T: 2, Crashes: crashes, Stabilize: 80}
	if algo == "fig8" {
		e.Algo = "fig8"
	}
	res, err := e.Run(seed, nil)
	return res.Stats, err
}
