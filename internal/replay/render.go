package replay

import (
	"fmt"
	"io"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/scenario"
)

// The renderers below are the single source of the driver's report
// format: cmd/hdsim prints live results through them and Verify prints
// replayed results through them, so live and replay reports can differ
// only in the verified numbers — never in formatting. Engine-only lines
// (event counts, queue high-water) exist solely on the live side and are
// gated by the `engine` parameter.

// WriteHeader writes the scenario's single-run header line.
func WriteHeader(w io.Writer, sc *scenario.Scenario) {
	m, n := sc.Meta, sc.IDs.N()
	switch sc.Algo {
	case "heartbeat":
		beaters := "all"
		if m.Beaters > 0 && m.Beaters < n {
			beaters = fmt.Sprint(m.Beaters)
		}
		fmt.Fprintf(w, "algo=heartbeat n=%d ℓ=%d beaters=%s churn=%s net=%s period=%d seed=%d\n",
			n, m.L, beaters, sc.Churn, sc.Net, sc.Period, m.Seed)
	case "ohp":
		if sc.Churn.Fraction > 0 {
			fmt.Fprintf(w, "algo=ohp ids=%v churn=%s net=%s seed=%d\n", sc.IDs, sc.Churn, sc.Net, m.Seed)
		} else {
			fmt.Fprintf(w, "algo=ohp ids=%v crashes=%d net=%s seed=%d\n", sc.IDs, len(sc.Crashes), sc.Net, m.Seed)
		}
	default:
		fmt.Fprintf(w, "algo=%s n=%d ℓ=%d ids=%v crashes=%s churn=%s seed=%d\n",
			m.Algo, n, m.L, sc.IDs, m.Crashes, m.Churn, m.Seed)
	}
}

// WriteReport writes the verified-run report of the scenario's algorithm
// family; a churn spec adds the fault-pattern lines. engine selects the
// live form of the heartbeat report: the live driver additionally
// cross-checks the engine's fault bookkeeping and prints the engine-only
// counters (events processed, queue high-water) that a trace cannot
// carry; a replay verifies the trace-derivable properties and prints only
// the shared lines.
func WriteReport(w io.Writer, sc *scenario.Scenario, r hds.Result, engine bool) {
	n, churn := sc.IDs.N(), sc.Churn.Fraction > 0
	switch sc.Algo {
	case "ohp":
		if !churn {
			fmt.Fprintln(w, "detector verified ✔ (◇HP̄ + HΩ)")
			fmt.Fprintf(w, "  ◇HP̄ stabilized:  t=%d\n", r.TrustedStabilization)
			fmt.Fprintf(w, "  HΩ stabilized:    t=%d  leader=%s\n", r.LeaderStabilization, r.Leader)
		} else {
			fmt.Fprintln(w, "detector verified ✔ (◇HP̄ + HΩ over the eventually-up set)")
			fmt.Fprintf(w, "  eventually up:    %d/%d (correct in the strict sense: %d)\n", r.EventuallyUp, n, r.Correct)
			fmt.Fprintf(w, "  recoveries:       %d\n", r.Recoveries)
			fmt.Fprintf(w, "  last change:      t=%d\n", r.LastChange)
			fmt.Fprintf(w, "  ◇HP̄ re-stab:     t=%d\n", r.TrustedStabilization)
			fmt.Fprintf(w, "  HΩ re-stab:       t=%d  leader=%s\n", r.LeaderStabilization, r.Leader)
		}
		fmt.Fprintf(w, "  broadcasts:       %d — %s\n", r.Stats.Broadcasts, cliutil.FormatTagCounts(r.Stats.ByTag))
	case "heartbeat":
		if engine {
			fmt.Fprintln(w, "heartbeat churn verified ✔ (fault bookkeeping vs schedule truth, heard-sum vs delivered, delivery liveness)")
		} else {
			fmt.Fprintln(w, "heartbeat churn verified ✔ (recoveries vs schedule truth, delivery liveness)")
		}
		fmt.Fprintf(w, "  eventually up:    %d/%d (correct in the strict sense: %d)\n", r.EventuallyUp, n, r.Correct)
		fmt.Fprintf(w, "  recoveries:       %d\n", r.Recoveries)
		if engine {
			fmt.Fprintf(w, "  events processed: %d (stop: %s)\n", r.Processed, r.Stopped)
		}
		fmt.Fprintf(w, "  deliveries/drops: %d/%d\n", r.Stats.Delivered, r.Stats.Dropped)
		if engine {
			fmt.Fprintf(w, "  queue high-water: %d entries (lazy fan-out: tracks broadcasts, not n² copies)\n", r.MaxQueue)
		}
	default:
		if churn {
			fmt.Fprintln(w, "consensus verified ✔ (termination over the eventually-up set, validity, agreement, decision stability)")
		} else {
			fmt.Fprintln(w, "consensus verified ✔ (termination, validity, agreement)")
		}
		fmt.Fprintf(w, "  decided value:    %q\n", r.Report.Value)
		fmt.Fprintf(w, "  deciders:         %d\n", r.Report.Deciders)
		fmt.Fprintf(w, "  rounds:           %d\n", r.Report.MaxRound)
		fmt.Fprintf(w, "  decisions span:   t=%d .. t=%d\n", r.Report.FirstDecision, r.Report.LastDecision)
		if churn {
			fmt.Fprintf(w, "  eventually up:    %d/%d (correct in the strict sense: %d)\n", r.EventuallyUp, n, r.Correct)
			fmt.Fprintf(w, "  recoveries:       %d\n", r.Recoveries)
			fmt.Fprintf(w, "  last churn event: t=%d\n", r.LastChange)
			fmt.Fprintf(w, "  decide after churn: +%d\n", r.DecideAfterChurn)
		}
		fmt.Fprintf(w, "  broadcasts:       %d total — %s\n", r.Stats.Broadcasts, cliutil.FormatTagCounts(r.Stats.ByTag))
		fmt.Fprintf(w, "  deliveries/drops: %d/%d\n", r.Stats.Delivered, r.Stats.Dropped)
	}
}
