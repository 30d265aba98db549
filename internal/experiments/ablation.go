package experiments

import (
	"fmt"

	hds "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// E14CoordinationAblation removes the Leaders' Coordination Phase from
// Fig. 8 — i.e. uses the anonymous-system protocol of [4] with HΩ naively —
// and measures what breaks. DESIGN.md §8 calls this ablation out: safety
// must survive (it rests on the majority quorums), termination must not
// (homonymous co-leaders keep pushing different estimates, Lemma 7's
// convergence argument is gone).
func E14CoordinationAblation() (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "Ablation: Fig. 8 without the Leaders' Coordination Phase",
		Paper:  "§5.2 (the phase's purpose); DESIGN.md §8 ablation",
		Header: []string{"ℓ", "variant", "runs", "decided", "safety violations", "max rounds seen"},
		Notes: []string{
			"With unique identifiers (ℓ=n, a single leader) the ablated protocol is just [4] and behaves identically. With homonymous leaders (ℓ<n) the co-leaders push different Phase-0 estimates, Phase 1 finds no majority, and rounds repeat until random delivery order happens to break the symmetry: measured round counts inflate by an order of magnitude in the worst seed, and termination is no longer *guaranteed* (an adversarial scheduler can repeat the split state forever — Lemma 7's argument is gone). The checker confirms agreement/validity never break either way: the Leaders' Coordination Phase buys exactly termination.",
			"Runs are capped at 40 rounds; \"decided\" counts runs where every correct process decided under the cap.",
		},
	}
	const (
		n        = 6
		tt       = 2
		runs     = 12
		roundCap = 40
	)
	type combo struct {
		l      int
		ablate bool
	}
	combos := []combo{{n, false}, {n, true}, {2, false}, {2, true}}
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	err := tableRows(&t, combos, func(_ int, c combo) []string {
		variant := "full (with COORD)"
		if c.ablate {
			variant = "ablated (no COORD)"
		}
		type outcome struct {
			ok     bool
			rounds int
			unsafe bool
		}
		outcomes := sweep.Map(seeds, func(_ int, seed int64) outcome {
			ok, rounds, unsafe := runAblated(n, c.l, tt, c.ablate, roundCap, seed)
			return outcome{ok, rounds, unsafe}
		})
		decided, safetyViolations, maxRounds := 0, 0, 0
		for _, o := range outcomes {
			if o.ok {
				decided++
			}
			if o.unsafe {
				safetyViolations++
			}
			if o.rounds > maxRounds {
				maxRounds = o.rounds
			}
		}
		return []string{
			itoaI(c.l), variant, itoaI(runs), itoaI(decided), itoaI(safetyViolations), itoaI(maxRounds),
		}
	})
	return t, err
}

// runAblated executes one (possibly ablated) Fig. 8 run with distinct
// proposals and a stable HΩ detector. It reports whether all correct
// processes decided under the round cap, the max round reached, and
// whether any *safety* property (validity/agreement/no-⊥) was violated.
func runAblated(n, l, tt int, ablate bool, roundCap int, seed int64) (allDecided bool, maxRound int, unsafe bool) {
	ids := ident.Balanced(n, l)
	eng := sim.New(sim.Config{IDs: ids, Net: sim.Async{MaxDelay: 8}, Seed: seed, KnownN: true})
	truth := fd.NewGroundTruth(ids, nil)
	world := oracle.NewWorld(truth, 0)
	proposals := make([]core.Value, n)
	insts := make([]*core.Fig8, n)
	for i := 0; i < n; i++ {
		proposals[i] = core.Value(fmt.Sprintf("v%d", i))
		det := oracle.NewHOmega(world, oracle.AdversaryNone)
		if ablate {
			insts[i] = core.NewFig8NoCoordination(det, tt, proposals[i])
		} else {
			insts[i] = core.NewFig8(det, tt, proposals[i])
		}
		insts[i].SetMaxRounds(roundCap)
		eng.AddProcess(sim.NewNode().Add("homega", det).Add("consensus", insts[i]))
	}
	eng.RunUntil(200_000, func() bool {
		for _, inst := range insts {
			if !inst.Decided().Decided {
				return false
			}
		}
		return true
	})

	outcomes := make([]core.Outcome, n)
	allDecided = true
	for i, inst := range insts {
		outcomes[i] = inst.Decided()
		if !outcomes[i].Decided {
			allDecided = false
		}
		if r := inst.Round(); r > maxRound {
			if r > roundCap {
				r = roundCap
			}
			maxRound = r
		}
	}
	// Safety-only check: ignore termination, verify every decision made.
	_, err := check.Consensus(truth, proposals, outcomes)
	if err != nil && allDecided {
		unsafe = true // with all decided, any failure is a safety failure
	}
	if err != nil && !allDecided {
		// Re-check safety alone over the deciders.
		unsafe = !safeDecisions(proposals, outcomes)
	}
	return allDecided, maxRound, unsafe
}

// safeDecisions verifies validity/agreement/no-⊥ over whoever decided.
func safeDecisions(proposals []core.Value, outcomes []core.Outcome) bool {
	proposed := make(map[core.Value]bool, len(proposals))
	for _, v := range proposals {
		proposed[v] = true
	}
	var have bool
	var val core.Value
	for _, o := range outcomes {
		if !o.Decided {
			continue
		}
		if o.Value == core.Bottom || !proposed[o.Value] {
			return false
		}
		if have && o.Value != val {
			return false
		}
		val, have = o.Value, true
	}
	return true
}

// E15LeaderGroupSize sweeps the size of the elected leader group: the
// Leaders' Coordination Phase waits for h_multiplicity COORD messages, so
// its latency and traffic grow with the group size c — the price the
// homonymous algorithm pays per round, measured directly.
func E15LeaderGroupSize() (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "Leader-group size vs. coordination cost (skewed homonymy)",
		Paper:  "§5.2 Leaders' Coordination Phase (cost model); DESIGN.md §8",
		Header: []string{"n", "leader group c", "rounds", "decided at (vt)", "COORD broadcasts", "total broadcasts"},
		Notes: []string{
			"Assignments put c processes on the leading identifier and give everyone else unique identifiers. Each round every process broadcasts COORD once (the paper's Line 9), so COORD traffic is n per round regardless of c; the c-dependence shows in the *latency* of the coordination wait (leaders block for all c co-leader messages) and in extra rounds when c is large relative to the quorum.",
		},
	}
	n := 7
	err := tableRows(&t, []int{1, 2, 3, 4, 5}, func(_ int, c int) []string {
		// "aaa" sorts before "solo…", so the heavy group leads.
		ids := make(ident.Assignment, n)
		for i := range ids {
			if i < c {
				ids[i] = "aaa"
			} else {
				ids[i] = ident.ID(fmt.Sprintf("solo%02d", i))
			}
		}
		res, err := hds.RunFig8(hds.Fig8Experiment{IDs: ids, T: 3, Net: sim.Async{MaxDelay: 8}, Seed: int64(90 + c), Horizon: 200_000})
		if err != nil {
			return []string{itoaI(n), itoaI(c), "✗ " + err.Error(), "-", "-", "-"}
		}
		return []string{
			itoaI(n), itoaI(c), itoaI(res.Report.MaxRound), itoa(res.Report.LastDecision),
			itoaI(res.Stats.ByTag["COORD"]), itoaI(res.Stats.Broadcasts),
		}
	})
	return t, err
}
