package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command with its process boundary made explicit, like
// cmd/hdsim's: arguments in, report on stdout, diagnostics on stderr, exit
// code back — 0 verified, 1 rejected input or a failed class check
// (`fdmon: <error>` on stderr, nothing on stdout), 2 flag syntax.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	detector := fs.String("detector", "ohp", "ohp (Figure 6, HPS) or hsigma (Figure 7, HSS)")
	n := fs.Int("n", 6, "number of processes")
	l := fs.Int("l", 3, "number of distinct identifiers (1 = anonymous, n = unique)")
	gst := fs.Int64("gst", 50, "global stabilization time (ohp)")
	delta := fs.Int64("delta", 3, "post-GST latency bound δ (ohp)")
	seed := fs.Int64("seed", 1, "random seed")
	horizon := fs.Int64("horizon", 6000, "virtual time horizon (ohp)")
	steps := fs.Int("steps", 40, "synchronous steps (hsigma)")
	crashes := fs.String("crashes", "1:30", "crash schedule pid:time[,pid:time...] (hsigma: pid:step); empty for none")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	report, err := monitor(*detector, *n, *l, *crashes, *gst, *delta, *seed, *horizon, *steps)
	if err != nil {
		fmt.Fprintf(stderr, "fdmon: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, report)
	return 0
}

// monitor runs the chosen detector and renders its verified report.
func monitor(detector string, n, l int, crashes string, gst, delta, seed, horizon int64, steps int) (string, error) {
	sched, err := cliutil.ParseCrashes(crashes)
	if err != nil {
		return "", err
	}
	ids, err := scenario.BalancedIDs(n, l)
	if err != nil {
		return "", err
	}
	report := fmt.Sprintf("identity assignment (n=%d, ℓ=%d): %v\n", n, l, ids)
	switch detector {
	case "ohp":
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs: ids, Crashes: sched, GST: gst, Delta: delta, Seed: seed, Horizon: horizon,
		})
		if err != nil {
			return "", err
		}
		report += "◇HP̄ and HΩ verified ✔ (Theorem 5, Corollary 2)\n"
		report += fmt.Sprintf("  h_trusted stabilized at:  t=%d\n", res.TrustedStabilization)
		report += fmt.Sprintf("  (h_leader, mult) stable:  t=%d → %s\n", res.LeaderStabilization, res.Leader)
		report += fmt.Sprintf("  adapted timeouts:         %v\n", res.FinalTimeouts)
		report += fmt.Sprintf("  traffic: %d POLLING, %d P_REPLY broadcasts over %d vt\n",
			res.Stats.ByTag["POLLING"], res.Stats.ByTag["P_REPLY"], horizon)
	case "hsigma":
		crashSteps := make(map[hds.PID]hds.CrashStep, len(sched))
		for p, at := range sched {
			crashSteps[p] = hds.CrashStep{Step: int(at), DeliverProb: 0.5}
		}
		res, err := hds.RunHSigma(hds.HSigmaExperiment{
			IDs: ids, CrashSteps: crashSteps, Steps: steps, Seed: seed,
		})
		if err != nil {
			return "", err
		}
		report += "HΣ verified ✔ (Theorem 6: validity, monotonicity, liveness, safety)\n"
		report += fmt.Sprintf("  outputs stabilized at step %d of %d\n", res.StabilizationStep, steps)
		report += fmt.Sprintf("  final |h_quora| per survivor: %v\n", res.QuoraPerProcess)
		report += fmt.Sprintf("  traffic: %d IDENT broadcasts\n", res.Stats.ByTag["IDENT"])
	default:
		return "", fmt.Errorf("unknown detector %q (want ohp or hsigma)", detector)
	}
	return report, nil
}
