package experiments

import (
	hds "repro"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
)

// E6DiamondHPbar sweeps the Figure 6 detector over n, homonymy degree ℓ,
// GST and δ in the partially synchronous system (with lossy pre-GST
// links), measuring stabilization and polling traffic.
func E6DiamondHPbar() (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "◇HP̄ in HPS (polling, adaptive timeouts)",
		Paper:  "Figure 6, Theorem 5",
		Header: []string{"n", "ℓ", "GST", "δ", "crashes", "◇HP̄ stab (vt)", "broadcasts (POLL+REPLY)", "max adapted timeout"},
		Notes: []string{
			"Shape to observe: stabilization lands after max(GST, last crash); the adaptive timeout settles above δ and grows with δ; traffic per unit time scales with n·ℓ (one reply per identifier, not per process).",
		},
	}
	type cfg struct {
		n, l       int
		gst, delta hds.Time
		crashes    map[hds.PID]hds.Time
		seed       int64
	}
	cfgs := []cfg{
		{4, 2, 50, 3, nil, 1},
		{6, 2, 50, 3, map[hds.PID]hds.Time{1: 30}, 2},
		{6, 3, 50, 3, map[hds.PID]hds.Time{1: 30}, 3},
		{6, 6, 50, 3, map[hds.PID]hds.Time{1: 30}, 4},
		{6, 1, 50, 3, map[hds.PID]hds.Time{1: 30}, 5},
		{6, 3, 150, 3, map[hds.PID]hds.Time{1: 30}, 6},
		{6, 3, 400, 3, map[hds.PID]hds.Time{1: 30}, 7},
		{6, 3, 50, 8, map[hds.PID]hds.Time{1: 30}, 8},
		{6, 3, 50, 16, map[hds.PID]hds.Time{1: 30}, 9},
		{9, 3, 50, 3, map[hds.PID]hds.Time{1: 30, 7: 60}, 10},
	}
	err := tableRows(&t, cfgs, func(_ int, c cfg) []string {
		res, err := hds.Experiment{
			Algo:    "ohp",
			IDs:     ident.Balanced(c.n, c.l),
			Crashes: c.crashes,
			Net:     sim.PartialSync{GST: c.gst, Delta: c.delta},
			Horizon: 6000,
		}.Run(c.seed, nil)
		if err != nil {
			return []string{itoaI(c.n), itoaI(c.l), itoa(c.gst), itoa(c.delta),
				itoaI(len(c.crashes)), "✗ " + err.Error(), "-", "-"}
		}
		var maxTO hds.Time
		for _, to := range res.FinalTimeouts {
			if to > maxTO {
				maxTO = to
			}
		}
		traffic := res.Stats.ByTag["POLLING"] + res.Stats.ByTag["P_REPLY"]
		return []string{
			itoaI(c.n), itoaI(c.l), itoa(c.gst), itoa(c.delta), itoaI(len(c.crashes)),
			itoa(res.TrustedStabilization), itoaI(traffic), itoa(maxTO),
		}
	})
	return t, err
}

// E7HOmegaExtraction compares the HΩ output's stabilization with ◇HP̄'s
// on the same runs: the extraction is free and can stabilize earlier (the
// minimum identifier can settle before the full multiset does).
func E7HOmegaExtraction() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "HΩ extracted from ◇HP̄ (no extra communication)",
		Paper:  "Observation 1, Corollary 2",
		Header: []string{"n", "ℓ", "crashes", "◇HP̄ stab (vt)", "HΩ stab (vt)", "elected (id, mult)"},
		Notes:  []string{"The HΩ output is min(h_trusted) with its multiplicity; it never stabilizes later than h_trusted and needs no messages beyond Figure 6's."},
	}
	type cfg struct {
		n, l    int
		crashes map[hds.PID]hds.Time
	}
	cfgs := []cfg{
		{5, 2, nil},
		{5, 2, map[hds.PID]hds.Time{0: 40}},
		{6, 3, map[hds.PID]hds.Time{0: 40, 3: 80}},
		{8, 4, map[hds.PID]hds.Time{0: 40, 1: 60, 2: 80}},
	}
	err := tableRows(&t, cfgs, func(i int, c cfg) []string {
		res, err := hds.Experiment{
			Algo:    "ohp",
			IDs:     ident.Balanced(c.n, c.l),
			Crashes: c.crashes,
			Net:     sim.PartialSync{GST: 50, Delta: 3},
			Horizon: 6000,
		}.Run(int64(40+i), nil)
		if err != nil {
			return []string{itoaI(c.n), itoaI(c.l), itoaI(len(c.crashes)), "✗ " + err.Error(), "-", "-"}
		}
		return []string{
			itoaI(c.n), itoaI(c.l), itoaI(len(c.crashes)),
			itoa(res.TrustedStabilization), itoa(res.LeaderStabilization),
			res.Leader.String(),
		}
	})
	return t, err
}

// E8HSigmaSync measures Figure 7 in the synchronous system: the liveness
// quorum appears one step after the last crash, and mid-broadcast crashes
// multiply the distinct quora without ever breaking safety.
func E8HSigmaSync() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "HΣ in HSS (synchronous steps)",
		Paper:  "Figure 7, Theorem 6",
		Header: []string{"n", "ℓ", "crash steps", "mid-broadcast?", "HΣ verified", "stab (step)", "final |h_quora| (max)"},
		Notes:  []string{"Stabilization is within one step of the last crash (Theorem 6's liveness argument); partial-broadcast crashes create divergent per-process snapshots — more quora — while safety holds across all of them."},
	}
	type cfg struct {
		n, l    int
		crashes map[hds.PID]hds.CrashStep
		partial string
	}
	cfgs := []cfg{
		{5, 2, nil, "-"},
		{6, 3, map[hds.PID]hds.CrashStep{1: {Step: 3, DeliverProb: 1}}, "no"},
		{6, 3, map[hds.PID]hds.CrashStep{1: {Step: 3, DeliverProb: 0.5}}, "yes"},
		{8, 2, map[hds.PID]hds.CrashStep{1: {Step: 2, DeliverProb: 0.4}, 5: {Step: 4, DeliverProb: 0.6}}, "yes"},
		{8, 8, map[hds.PID]hds.CrashStep{0: {Step: 2, DeliverProb: 0.4}, 7: {Step: 5, DeliverProb: 0.5}}, "yes"},
	}
	err := tableRows(&t, cfgs, func(i int, c cfg) []string {
		res, err := hds.RunHSigma(hds.HSigmaExperiment{
			IDs:        ident.Balanced(c.n, c.l),
			CrashSteps: c.crashes,
			Steps:      12,
			Seed:       int64(50 + i),
		})
		status := "✓"
		if err != nil {
			status = "✗ " + err.Error()
		}
		maxQ := 0
		for _, q := range res.QuoraPerProcess {
			if q > maxQ {
				maxQ = q
			}
		}
		return []string{
			itoaI(c.n), itoaI(c.l), itoaI(len(c.crashes)), c.partial, status,
			itoa(res.StabilizationStep), itoaI(maxQ),
		}
	})
	return t, err
}

// E9Fig8Consensus sweeps the Figure 8 consensus across homonymy degrees,
// crash loads and adversarial detector stabilization.
func E9Fig8Consensus() (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "Consensus in HAS[t<n/2, HΩ]",
		Paper:  "Figure 8, Theorem 7",
		Header: []string{"n", "ℓ", "t", "crashes", "FD stab (vt)", "adversary", "rounds", "decided at (vt)", "broadcasts"},
		Notes: []string{
			"Shape to observe: with a stable detector, one round suffices regardless of ℓ. Pre-stabilization flapping costs only termination time — the split-brain rows burn rounds until the detector settles, while lucky rotating leadership can even decide early — and agreement/validity hold in every row (each run is checker-verified). COORD traffic is the homonymy surcharge.",
		},
	}
	type cfg struct {
		n, l, tt int
		crashes  map[hds.PID]hds.Time
		stab     hds.Time
		adv      oracle.Adversary
		advName  string
		seed     int64
	}
	cfgs := []cfg{
		{5, 5, 2, nil, 0, oracle.AdversaryNone, "none", 1},
		{5, 2, 2, nil, 0, oracle.AdversaryNone, "none", 2},
		{5, 1, 2, nil, 0, oracle.AdversaryNone, "none", 3},
		{5, 2, 2, map[hds.PID]hds.Time{1: 30}, 80, oracle.AdversaryRotate, "rotate", 4},
		{5, 2, 2, map[hds.PID]hds.Time{1: 30, 3: 60}, 80, oracle.AdversaryRotate, "rotate", 5},
		{7, 3, 3, map[hds.PID]hds.Time{0: 30, 4: 60, 6: 90}, 120, oracle.AdversarySplit, "split", 6},
		{9, 3, 4, map[hds.PID]hds.Time{0: 20, 2: 40, 4: 60, 6: 80}, 150, oracle.AdversarySplit, "split", 7},
		{9, 3, 4, nil, 300, oracle.AdversaryRotate, "rotate", 8},
	}
	err := tableRows(&t, cfgs, func(_ int, c cfg) []string {
		res, err := hds.Experiment{
			Algo:      "fig8",
			IDs:       ident.Balanced(c.n, c.l),
			T:         c.tt,
			Crashes:   c.crashes,
			Stabilize: c.stab,
			Adversary: c.adv,
		}.Run(c.seed, nil)
		if err != nil {
			return []string{itoaI(c.n), itoaI(c.l), itoaI(c.tt), itoaI(len(c.crashes)),
				itoa(c.stab), c.advName, "✗ " + err.Error(), "-", "-"}
		}
		return []string{
			itoaI(c.n), itoaI(c.l), itoaI(c.tt), itoaI(len(c.crashes)), itoa(c.stab), c.advName,
			itoaI(res.Report.MaxRound), itoa(res.Report.LastDecision), itoaI(res.Stats.Broadcasts),
		}
	})
	return t, err
}

// E10Fig9Consensus sweeps the Figure 9 consensus up to n−1 crashes — the
// regime Figure 8 cannot enter.
func E10Fig9Consensus() (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "Consensus in HAS[HΩ, HΣ] — any number of crashes",
		Paper:  "Figure 9, Theorem 8",
		Header: []string{"n", "ℓ", "crashes", "correct", "FD stab (vt)", "rounds", "decided at (vt)", "broadcasts"},
		Notes: []string{
			"Shape to observe: decisions survive up to n−1 crashes (t ≥ n/2 included), which Figure 8's majority quorums cannot; the cost is HΣ sub-round traffic after each h_labels change.",
		},
	}
	n := 6
	ks := make([]int, n)
	for k := range ks {
		ks[k] = k
	}
	err := tableRows(&t, ks, func(_ int, k int) []string {
		crashes := make(map[hds.PID]hds.Time, k)
		for i := 0; i < k; i++ {
			crashes[hds.PID(i)] = hds.Time(20 + 15*i)
		}
		res, err := hds.Experiment{
			Algo:      "fig9",
			IDs:       ident.Balanced(n, 3),
			Crashes:   crashes,
			Stabilize: 140,
			Adversary: oracle.AdversaryRotate,
		}.Run(int64(60+k), nil)
		if err != nil {
			return []string{itoaI(n), "3", itoaI(k), itoaI(n - k), "140", "✗ " + err.Error(), "-", "-"}
		}
		return []string{
			itoaI(n), "3", itoaI(k), itoaI(n - k), "140",
			itoaI(res.Report.MaxRound), itoa(res.Report.LastDecision), itoaI(res.Stats.Broadcasts),
		}
	})
	return t, err
}

// E11HomonymyExtremes compares the extremes of homonymy on one workload:
// unique identifiers (ℓ=n, HΩ ≍ Ω), balanced homonymy, anonymous with HΩ,
// and the paper's anonymous AΩ baseline without the coordination phase.
func E11HomonymyExtremes() (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "Extremes of homonymy on one workload",
		Paper:  "§1–2 (AS and AAS as extreme cases), §5.3 closing remark",
		Header: []string{"variant", "ℓ", "algorithm", "rounds", "decided at (vt)", "broadcasts", "COORD broadcasts"},
		Notes: []string{
			"The same library instance covers the whole identity spectrum. The AΩ baseline saves the COORD traffic but is only defined for anonymous systems; the homonymous algorithms subsume both extremes.",
		},
	}
	n := 6
	type variant struct {
		name string
		l    int
		algo string
		e    hds.Experiment
	}
	variants := []variant{
		{"unique (classical)", n, "Fig 8 (HΩ)", hds.Experiment{Algo: "fig8", IDs: ident.Unique(n), T: 2}},
		{"homonymous", 2, "Fig 8 (HΩ)", hds.Experiment{Algo: "fig8", IDs: ident.Balanced(n, 2), T: 2}},
		{"anonymous", 1, "Fig 8 (HΩ)", hds.Experiment{Algo: "fig8", IDs: ident.AnonymousN(n), T: 2}},
		{"anonymous", 1, "Fig 9 (HΩ+HΣ)", hds.Experiment{Algo: "fig9", IDs: ident.AnonymousN(n)}},
		{"anonymous baseline", 1, "Fig 9 (AΩ, no COORD)", hds.Experiment{Algo: "fig9-anon", IDs: ident.AnonymousN(n)}},
	}
	err := tableRows(&t, variants, func(i int, v variant) []string {
		v.e.Crashes, v.e.Stabilize = map[hds.PID]hds.Time{1: 40}, 80
		res, err := v.e.Run(int64(71+i), nil)
		if err != nil {
			return []string{v.name, itoaI(v.l), v.algo, "✗ " + err.Error(), "-", "-", "-"}
		}
		return []string{
			v.name, itoaI(v.l), v.algo, itoaI(res.Report.MaxRound), itoa(res.Report.LastDecision),
			itoaI(res.Stats.Broadcasts), itoaI(res.Stats.ByTag["COORD"]),
		}
	})
	return t, err
}

// E12EndToEndHPS runs the full stack — Figure 6 detector under Figure 8
// consensus — in HPS and shows decision time tracking GST.
func E12EndToEndHPS() (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "End-to-end: Fig 6 (◇HP̄→HΩ) under Fig 8 in HPS",
		Paper:  "§1 Contributions (combined partial-synchrony result)",
		Header: []string{"n", "ℓ", "GST", "δ", "crashes", "rounds", "decided at (vt)", "broadcasts"},
		Notes: []string{
			"The paper's headline composition: consensus with partially synchronous processes, eventually timely (reliable) links, a correct majority and no initial membership knowledge. Decision time tracks GST — before it, harsh pre-GST delays stall both the detector's convergence and the consensus quorums.",
		},
	}
	err := tableRows(&t, []hds.Time{0, 100, 300, 600}, func(i int, gst hds.Time) []string {
		res, err := hds.Experiment{
			Algo:      "fig8",
			IDs:       ident.Balanced(5, 2),
			T:         2,
			Crashes:   map[hds.PID]hds.Time{3: 40},
			Net:       sim.PartialSync{GST: gst, Delta: 3, PreMax: 120},
			Detectors: hds.MessagePassingDetectors,
			Horizon:   3_000_000,
		}.Run(int64(80+i), nil)
		if err != nil {
			return []string{"5", "2", itoa(gst), "3", "1", "✗ " + err.Error(), "-", "-"}
		}
		return []string{
			"5", "2", itoa(gst), "3", "1",
			itoaI(res.Report.MaxRound), itoa(res.Report.LastDecision), itoaI(res.Stats.Broadcasts),
		}
	})
	return t, err
}
