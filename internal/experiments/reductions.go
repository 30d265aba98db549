package experiments

import (
	"repro/internal/fd"
	"repro/internal/fd/alive"
	"repro/internal/ident"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/trace"
	"slices"
)

// verified renders a class checker's verdict as a table cell.
func verified(err error) string {
	if err != nil {
		return "✗ " + err.Error()
	}
	return "✓"
}

// E1SigmaToHSigmaKnown measures Figure 1 (Σ→HΣ, membership known): a
// communication-free transformation whose label sets grow exponentially
// with the known membership.
func E1SigmaToHSigmaKnown() (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "Σ → HΣ with known membership",
		Paper:  "Figure 1, Theorem 1(1)",
		Header: []string{"n", "crashes", "HΣ verified", "stabilization (vt)", "broadcasts", "|h_labels| per proc"},
		Notes:  []string{"Zero broadcasts: the Figure 1 transformation is communication-free; h_labels is the 2^(n−1) subsets of I(Π) containing id(p)."},
	}
	err := tableRows(&t, []int{3, 5, 7}, func(_ int, n int) []string {
		out, err := reduce.Deployment[fd.HSigma]{
			IDs: ident.Unique(n), Crashes: map[sim.PID]sim.Time{0: 40}, Seed: int64(n),
			Stack: reduce.StackFig1, Target: reduce.JudgeHSigma,
		}.Run()
		return []string{
			itoaI(n), "1", verified(err), itoa(out.StabilizationTime),
			itoaI(out.Stats.Broadcasts), itoaI(len(out.Detectors[1].Labels())),
		}
	})
	return t, err
}

// E2SigmaToHSigmaUnknown measures Figure 2 (Σ→HΣ, membership unknown):
// the IDENT discovery traffic and the horizon at which HΣ stabilizes.
func E2SigmaToHSigmaUnknown() (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "Σ → HΣ without membership knowledge",
		Paper:  "Figure 2, Theorem 1(2)",
		Header: []string{"n", "crashes", "HΣ verified", "stabilization (vt)", "IDENT broadcasts"},
		Notes:  []string{"IDENT traffic grows linearly in n per unit time — the price of membership discovery; stabilization tracks the oracle's Σ convergence."},
	}
	err := tableRows(&t, []int{3, 5, 7}, func(_ int, n int) []string {
		out, err := reduce.Deployment[fd.HSigma]{
			IDs: ident.Unique(n), Crashes: map[sim.PID]sim.Time{sim.PID(n - 1): 60}, Seed: int64(10 + n),
			Stack: reduce.StackFig2, Target: reduce.JudgeHSigma,
		}.Run()
		return []string{
			itoaI(n), "1", verified(err), itoa(out.StabilizationTime),
			itoaI(out.Stats.ByTag["IDENT"]),
		}
	})
	return t, err
}

// E3AliveList measures Figure 3 (class 𝔈): how fast the correct
// identifiers conquer the prefix of the alive list as crashes mount.
func E3AliveList() (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "𝔈 alive list: prefix convergence",
		Paper:  "Figure 3, Definition 1, Lemma 1",
		Header: []string{"n", "crashes", "last crash (vt)", "𝔈 verified", "prefix stable (vt)", "ALIVE broadcasts"},
		Notes:  []string{"\"Prefix stable\" is when the *set* of identifiers occupying the first |Correct| positions stopped changing (the list keeps reordering within the prefix forever, which the class permits). It lands shortly after the last crash: crashed identifiers stop being refreshed and sink below every correct one."},
	}
	type e3cfg struct {
		n       int
		crashes map[sim.PID]sim.Time
	}
	cfgs := []e3cfg{
		{4, nil},
		{6, map[sim.PID]sim.Time{1: 100}},
		{8, map[sim.PID]sim.Time{1: 100, 3: 200, 5: 300}},
		{12, map[sim.PID]sim.Time{0: 50, 2: 100, 4: 150, 6: 200, 8: 250}},
	}
	err := tableRows(&t, cfgs, func(_ int, cfg e3cfg) []string {
		ids := ident.Unique(cfg.n)
		rec := &trace.Recorder{}
		eng := sim.New(sim.Config{IDs: ids, Net: sim.Async{MaxDelay: 8}, Seed: int64(cfg.n), Recorder: rec})
		dets := make([]*alive.Detector, cfg.n)
		for i := range dets {
			dets[i] = alive.New()
			eng.AddProcess(dets[i])
		}
		eng.CrashSchedule(cfg.crashes)
		probe := fd.NewStreamProbe(eng, cfg.n, func(p sim.PID) ([]ident.ID, bool) {
			if eng.Crashed(p) {
				return nil, false
			}
			return dets[p].Alive(), true
		}, slices.Equal[[]ident.ID])
		// Prefix probe: the sorted set of the first |Correct| identifiers,
		// whose last change is the meaningful stabilization instant.
		truth := fd.NewGroundTruth(ids, cfg.crashes)
		k := len(truth.Correct())
		prefix := fd.NewStreamProbe(eng, cfg.n, func(p sim.PID) ([]ident.ID, bool) {
			if eng.Crashed(p) {
				return nil, false
			}
			a := dets[p].Alive()
			if len(a) < k {
				return nil, false
			}
			top := append([]ident.ID(nil), a[:k]...)
			slices.Sort(top)
			return top, true
		}, slices.Equal[[]ident.ID])
		eng.Run(1200)
		_, err := fd.CheckAliveList(truth, probe)
		var prefixStable sim.Time
		for _, p := range truth.Correct() {
			if ts := prefix.LastChange(p); ts > prefixStable {
				prefixStable = ts
			}
		}
		return []string{
			itoaI(cfg.n), itoaI(len(cfg.crashes)), itoa(truth.LastCrashTime()), verified(err),
			itoa(prefixStable), itoaI(rec.Stats().ByTag["ALIVE"]),
		}
	})
	return t, err
}

// E4HSigmaToSigma measures Figure 4 (HΣ→Σ via 𝔈): the emulated Σ detector
// and the LABELS gossip it costs.
func E4HSigmaToSigma() (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "HΣ → Σ using the 𝔈 alive list",
		Paper:  "Figure 4, Theorem 2",
		Header: []string{"n", "crashes", "Σ verified", "stabilization (vt)", "LABELS broadcasts", "ALIVE broadcasts"},
		Notes:  []string{"The emulated Σ trusts I(Correct) once the 𝔈 ranking prefers the all-correct HΣ candidate; both gossip streams run at the poll rate."},
	}
	err := tableRows(&t, []int{3, 5, 7}, func(_ int, n int) []string {
		out, err := reduce.Deployment[*reduce.HSigmaToSigma]{
			IDs: ident.Unique(n), Crashes: map[sim.PID]sim.Time{0: 50}, Seed: int64(20 + n),
			Stack: reduce.StackFig4, Target: reduce.JudgeSigma,
		}.Run()
		return []string{
			itoaI(n), "1", verified(err), itoa(out.StabilizationTime),
			itoaI(out.Stats.ByTag["LABELS"]), itoaI(out.Stats.ByTag["ALIVE"]),
		}
	})
	return t, err
}

// E5RelationMatrix executes every Figure-5 arrow and reports the verified
// matrix.
func E5RelationMatrix() (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "Machine-checked failure detector relation matrix",
		Paper:  "Figure 5; Theorems 1–4, Observation 1, Corollaries 1–2",
		Header: []string{"from", "to", "paper source", "model", "verified", "stabilization (vt)"},
		Notes:  []string{"Each arrow is an executable reduction; \"verified\" means the emulated detector passed every axiom of the target class on the recorded execution (4 seeds; worst stabilization shown)."},
	}
	err := tableRows(&t, reduce.All(), func(_ int, rel reduce.Relation) []string {
		var failed error
		var worst sim.Time
		for seed := int64(1); seed <= 4; seed++ {
			res, err := rel.Run(seed)
			if err != nil {
				failed = err
				break
			}
			worst = max(worst, res.StabilizationTime)
		}
		return []string{rel.From, rel.To, rel.Source, rel.Model, verified(failed), itoa(worst)}
	})
	return t, err
}

// E13APReductions measures Lemmas 2–3: AP lifted to ◇HP̄ and HΣ in
// anonymous systems, across crash loads.
func E13APReductions() (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "AP → ◇HP̄ and AP → HΣ in anonymous systems",
		Paper:  "Lemmas 2–3, Theorem 4",
		Header: []string{"n", "crashes", "◇HP̄ verified", "◇HP̄ stab (vt)", "HΣ verified", "HΣ stab (vt)"},
		Notes:  []string{"Both transformations are communication-free; stabilization is inherited from AP tightening to |Correct| after the last crash."},
	}
	err := tableRows(&t, []map[sim.PID]sim.Time{
		nil,
		{1: 40},
		{0: 30, 2: 60, 4: 90},
	}, func(_ int, crashes map[sim.PID]sim.Time) []string {
		const n = 6
		ids := ident.AnonymousN(n)
		ohp, err1 := reduce.Deployment[fd.DiamondHPbar]{
			IDs: ids, Crashes: crashes, Seed: 31, Stack: reduce.StackLemma2, Target: reduce.JudgeDiamondHPbar,
		}.Run()
		hs, err2 := reduce.Deployment[fd.HSigma]{
			IDs: ids, Crashes: crashes, Seed: 32, Stack: reduce.StackLemma3, Target: reduce.JudgeHSigma,
		}.Run()
		return []string{
			itoaI(n), itoaI(len(crashes)),
			verified(err1), itoa(ohp.StabilizationTime), verified(err2), itoa(hs.StabilizationTime),
		}
	})
	return t, err
}
