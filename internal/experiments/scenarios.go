package experiments

import (
	"fmt"

	hds "repro"
	"repro/internal/ident"
	"repro/internal/sim"
)

// E18ChurnSweep opens the crash-recovery workload family: churners cycle
// down and up, and the stack must re-converge to the eventually-up
// processes. Small systems run the full Figure 6 detector and verify the
// churn-restated ◇HP̄/HΩ class properties; large systems (up to n = 1000)
// run the heartbeat workload, which verifies the engine's incremental
// Correct/EventuallyUp bookkeeping against the schedule-derived ground
// truth at a scale the detector's n² polling cannot reach.
func E18ChurnSweep() (Table, error) {
	t := Table{
		ID:     "E18",
		Title:  "Crash-recovery churn sweep (◇HP̄ re-convergence, large-n engine truth)",
		Paper:  "§2 model extension: crash-recovery beyond the paper's crash-stop patterns",
		Header: []string{"workload", "n", "ℓ", "churn", "eventually-up", "recoveries", "events", "re-stab (vt)", "stop"},
		Notes: []string{
			"Shape to observe: ◇HP̄ re-stabilizes shortly after the fault pattern's last change (crash or recovery), and the target is I(EventuallyUp) — recovered churners re-enter the trusted multiset, which the strict crash-stop reading of Correct would forbid. The heartbeat rows scale the same churn engine to n=1000: every row cross-checks the engine's incremental Correct/EventuallyUp sets against the schedule-derived ground truth.",
		},
	}
	type cfg struct {
		workload string
		n, l     int
		churn    sim.ChurnSpec
		horizon  hds.Time
		seed     int64
	}
	cfgs := []cfg{
		{"fig6-ohp", 12, 4, sim.ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 40, Up: 60, Stagger: 7}, 4000, 1},
		{"fig6-ohp", 30, 6, sim.ChurnSpec{Fraction: 0.2, Cycles: 2, Start: 30, Down: 40, Up: 60, Stagger: 7}, 4000, 2},
		{"fig6-ohp", 50, 10, sim.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 30, Down: 50, Stagger: 5}, 3000, 3},
		{"heartbeat", 50, 10, sim.ChurnSpec{Fraction: 0.3, Cycles: 2, Start: 10, Down: 20, Up: 25}, 150, 4},
		{"heartbeat", 200, 20, sim.ChurnSpec{Fraction: 0.2, Cycles: 2, Start: 10, Down: 20, Up: 25, FinalDown: true}, 120, 5},
		{"heartbeat", 1000, 50, sim.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 5, Down: 12}, 40, 6},
	}
	err := tableRows(&t, cfgs, func(_ int, c cfg) []string {
		ids := ident.Balanced(c.n, c.l)
		base := []string{c.workload, itoaI(c.n), itoaI(c.l), c.churn.String()}
		switch c.workload {
		case "fig6-ohp":
			res, err := hds.Experiment{
				Algo: "ohp", IDs: ids, Churn: c.churn, Horizon: c.horizon,
			}.Run(c.seed, nil)
			if err != nil {
				return append(base, "✗ "+err.Error(), "-", "-", "-", "-")
			}
			return append(base,
				fmt.Sprintf("%d/%d", res.EventuallyUp, c.n), itoaI(res.Recoveries),
				itoaI(res.Stats.Delivered+res.Stats.Dropped),
				fmt.Sprintf("%d (last change %d)", res.TrustedStabilization, res.LastChange),
				res.Stopped.String())
		default:
			res, err := hds.Experiment{
				Algo: "heartbeat", IDs: ids, Churn: c.churn, Period: 15, Horizon: c.horizon,
				MaxEvents: 20_000_000,
			}.Run(c.seed, nil)
			if err != nil {
				return append(base, "✗ "+err.Error(), "-", "-", "-", "-")
			}
			return append(base,
				fmt.Sprintf("%d/%d", res.EventuallyUp, c.n), itoaI(res.Recoveries),
				itoaI(res.Processed), "-", res.Stopped.String())
		}
	})
	return t, err
}

// E20ChurnConsensus extends the crash-recovery workload family from the
// detector layer (E18) to end-to-end consensus: Figures 8 and 9 run with
// the rejoin protocol live — churners crash mid-protocol, recover, resync
// their round through the (REJOIN, r) exchange, and must still decide.
// Every row is checker-verified under the crash-recovery restatement
// (Termination over the eventually-up set, decision stability across
// outages, relayed rounds matching a real deciding round) and cross-checks
// the engine's fault bookkeeping against the schedule-derived truth.
func E20ChurnConsensus() (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "Consensus under crash-recovery churn (Fig. 8/9 with the rejoin protocol)",
		Paper:  "§5 consensus algorithms beyond the paper's crash-stop fault model",
		Header: []string{"workload", "n", "ℓ", "t", "churn", "deciders", "rounds", "decided (vt)", "after churn (vt)", "recoveries", "stop"},
		Notes: []string{
			"Shape to observe: every eventually-up process decides — recovered churners rejoin through the round-resync exchange or adopt the decision via the re-armed DECIDE relay — and the post-churn decision latency (`after churn`) stays small once the detector layer re-converges. Final-down rows shrink the deciding population to the eventually-up set; the `fig8-mp` row runs the full Figure 6 stack (itself recovery-capable) underneath the consensus.",
		},
	}
	type cfg struct {
		workload string
		n, l, t  int
		churn    sim.ChurnSpec
		net      sim.Model
		seed     int64
	}
	cfgs := []cfg{
		{"fig8-oracle", 5, 2, 2, sim.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 2, Down: 60}, hds.Async{MaxDelay: 8}, 1},
		{"fig8-oracle", 7, 3, 3, sim.ChurnSpec{Fraction: 0.3, Cycles: 2, Start: 2, Down: 30, Up: 40, Stagger: 7}, hds.Async{MaxDelay: 8}, 2},
		{"fig8-mp", 5, 2, 2, sim.ChurnSpec{Fraction: 0.3, Cycles: 1, Start: 3, Down: 50, Stagger: 5}, hds.PartialSync{Delta: 3}, 3},
		{"fig9", 6, 3, 0, sim.ChurnSpec{Fraction: 0.34, Cycles: 1, Start: 2, Down: 60, Stagger: 7}, hds.Async{MaxDelay: 8}, 4},
		{"fig9", 6, 2, 0, sim.ChurnSpec{Fraction: 0.34, Cycles: 2, Start: 2, Down: 30, Up: 40, FinalDown: true}, hds.Async{MaxDelay: 8}, 5},
		{"fig9-anon", 5, 1, 0, sim.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 2, Down: 50}, hds.Async{MaxDelay: 8}, 6},
	}
	err := tableRows(&t, cfgs, func(_ int, c cfg) []string {
		ids := ident.Balanced(c.n, c.l)
		base := []string{c.workload, itoaI(c.n), itoaI(c.l), itoaI(c.t), c.churn.String()}
		e := hds.Experiment{Algo: c.workload, IDs: ids, T: c.t, Churn: c.churn, Net: c.net}
		switch c.workload {
		case "fig8-oracle":
			e.Algo = "fig8"
		case "fig8-mp":
			e.Algo, e.Detectors = "fig8", hds.MessagePassingDetectors
		}
		res, err := e.Run(c.seed, nil)
		if err != nil {
			return append(base, "✗ "+err.Error(), "-", "-", "-", "-", "-")
		}
		return append(base,
			fmt.Sprintf("%d/%d up", res.Report.Deciders, res.EventuallyUp),
			itoaI(res.Report.MaxRound), itoa(res.Report.LastDecision),
			itoa(res.DecideAfterChurn), itoaI(res.Recoveries),
			res.Stopped.String())
	})
	return t, err
}

// E21PopulationScaling sweeps the population into the tens of thousands —
// the scale the lazy fan-out + streaming-verification pipeline exists for.
// Every row runs the heartbeat workload under churn with a fixed beater
// pool (event volume Θ(beaters·n), so n is the stressed dimension: every
// broadcast still fans out to all n live recipients), verifies the
// engine's incremental Correct/EventuallyUp bookkeeping against the
// schedule-derived ground truth, the per-process delivery counters
// against the recorder's Delivered total, and delivery liveness through a
// streaming probe. The max-queue column is the lazy fan-out witness: the
// event-queue high-water mark stays proportional to live broadcasts,
// timers, and churn entries — never to the n² message copies in flight.
func E21PopulationScaling() (Table, error) {
	t := Table{
		ID:     "E21",
		Title:  "Population scaling: lazy fan-out + streaming verification (n to 50,000)",
		Paper:  "§1 population-scale premise: detector properties are about populations, not n ≤ 1000",
		Header: []string{"n", "ℓ", "beaters", "churn", "eventually-up", "recoveries", "delivered", "max queue", "stop"},
		Notes: []string{
			"Shape to observe: delivered messages grow linearly in n (fixed beater pool × n recipients) while the queue high-water mark stays in the thousands — bounded by live broadcasts, timers, and the churn schedule, independent of the n² copies the eager path would enqueue. Every row is verified: engine fault bookkeeping against schedule-derived truth, heard-sum against the recorder's delivery count, and per-process delivery liveness via a streaming probe with O(1) state per process.",
		},
	}
	type row struct {
		e    hds.Experiment
		l    int
		seed int64
	}
	// heartbeat is one row's experiment with its defaults filled, so the
	// row reads the beater count it runs (0 = all beat) off the value.
	heartbeat := func(n, l, beaters int, churn sim.ChurnSpec, horizon hds.Time, seed int64) row {
		return row{hds.Experiment{
			Algo: "heartbeat", IDs: ident.Balanced(n, l), Churn: churn, Period: 15, Horizon: horizon,
			Beaters: beaters, MaxEvents: 100_000_000,
		}.WithDefaults(), l, seed}
	}
	rows := []row{
		heartbeat(1000, 50, 0 /* all beat: the old ceiling, now dense baseline */, sim.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 5, Down: 12}, 40, 1),
		heartbeat(10_000, 100, 100, sim.ChurnSpec{Fraction: 0.1, Cycles: 1, Start: 5, Down: 12}, 45, 2),
		heartbeat(50_000, 200, 100, sim.ChurnSpec{Fraction: 0.05, Cycles: 1, Start: 5, Down: 12}, 45, 3),
	}
	// A row's length is its copies per beat, n recipients × beaters: the
	// 50,000 row is half the table, so it starts first and the two small
	// rows run beside it instead of ahead of it.
	copiesPerBeat := func(r row) int64 { return int64(r.e.IDs.N()) * int64(r.e.Beaters) }
	err := tableRowsByCost(&t, rows, copiesPerBeat, func(_ int, r row) []string {
		n := r.e.IDs.N()
		base := []string{itoaI(n), itoaI(r.l), itoaI(r.e.Beaters), r.e.Churn.String()}
		res, err := r.e.Run(r.seed, nil)
		if err != nil {
			return append(base, "✗ "+err.Error(), "-", "-", "-", "-")
		}
		return append(base,
			fmt.Sprintf("%d/%d", res.EventuallyUp, n), itoaI(res.Recoveries),
			itoaI(res.Stats.Delivered), itoaI(res.MaxQueue), res.Stopped.String())
	})
	return t, err
}

// E19HeavyTailDelays ablates the delay distribution under the Figure 6
// detector: the uniform-delay HPS baseline against truncated Pareto and
// log-normal tails, time-varying partial synchrony, and per-link
// asymmetric skew. Every network here is eventually timely (the heavy
// tails are capped), so the class properties must still hold — what the
// tail buys is a harder adaptation problem and a later stabilization.
func E19HeavyTailDelays() (Table, error) {
	t := Table{
		ID:     "E19",
		Title:  "Delay-model ablation: heavy tails, time-varying synchrony, asymmetric links",
		Paper:  "Theorem 5 beyond uniform delays (Figure 6 under adversarial timing)",
		Header: []string{"network", "◇HP̄ stab (vt)", "HΩ stab (vt)", "broadcasts (POLL+REPLY)", "max adapted timeout"},
		Notes: []string{
			"Shape to observe: the adaptive timeout (Lines 33–34) tracks the tail, not the mean — heavier tails (smaller α, larger σ) push the settled timeout toward the truncation cap and delay stabilization, while the uniform baseline settles just above δ. Per-link skew adds the asymmetry the paper's link-symmetric model never exercises; correctness is unaffected.",
		},
	}
	nets := []sim.Model{
		sim.PartialSync{GST: 50, Delta: 3},
		sim.Pareto{Scale: 2, Alpha: 2.5, Cap: 15},
		sim.Pareto{Scale: 2, Alpha: 1.5, Cap: 15},
		sim.Pareto{Scale: 2, Alpha: 1.1, Cap: 15},
		sim.LogNormal{Median: 3, Sigma: 0.7, Cap: 15},
		sim.LogNormal{Median: 3, Sigma: 1.5, Cap: 15},
		sim.Alternating{Period: 40, GoodDelta: 3, BadMax: 30, BadLoss: 0.3, CalmAfter: 200},
		sim.AsymmetricLinks{Base: sim.Async{MaxDelay: 6}, MaxSkew: 10},
	}
	err := tableRows(&t, nets, func(i int, net sim.Model) []string {
		res, err := hds.Experiment{
			Algo:    "ohp",
			IDs:     ident.Balanced(6, 3),
			Crashes: map[hds.PID]hds.Time{1: 30},
			Net:     net,
			Horizon: 12000,
		}.Run(int64(90+i), nil)
		if err != nil {
			return []string{net.String(), "✗ " + err.Error(), "-", "-", "-"}
		}
		var maxTO hds.Time
		for _, to := range res.FinalTimeouts {
			if to > maxTO {
				maxTO = to
			}
		}
		traffic := res.Stats.ByTag["POLLING"] + res.Stats.ByTag["P_REPLY"]
		return []string{
			net.String(),
			itoa(res.TrustedStabilization), itoa(res.LeaderStabilization),
			itoaI(traffic), itoa(maxTO),
		}
	})
	return t, err
}
