package main

import (
	"bytes"
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

// options are fdmon's flags.
type options struct {
	detector                  string
	n, l, steps               int
	gst, delta, seed, horizon int64
	crashes                   string
}

// run is the whole command with its process boundary made explicit, like
// cmd/hdsim's: arguments in, report on stdout, diagnostics on stderr, exit
// code back — 0 verified, 1 rejected input or a failed class check
// (`fdmon: <error>` on stderr, nothing on stdout), 2 flag syntax.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("fdmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.detector, "detector", "ohp", "ohp (Figure 6, HPS) or hsigma (Figure 7, HSS)")
	fs.IntVar(&o.n, "n", 6, "number of processes")
	fs.IntVar(&o.l, "l", 3, "number of distinct identifiers (1 = anonymous, n = unique)")
	fs.Int64Var(&o.gst, "gst", 50, "global stabilization time (ohp)")
	fs.Int64Var(&o.delta, "delta", 3, "post-GST latency bound δ (ohp)")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Int64Var(&o.horizon, "horizon", 6000, "virtual time horizon (ohp)")
	fs.IntVar(&o.steps, "steps", 40, "synchronous steps (hsigma)")
	fs.StringVar(&o.crashes, "crashes", "1:30", "crash schedule pid:time[,pid:time...] (hsigma: pid:step); empty for none")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var report bytes.Buffer // reaches stdout only once the run is verified
	if err := o.monitor(&report); err != nil {
		fmt.Fprintf(stderr, "fdmon: %v\n", err)
		return 1
	}
	stdout.Write(report.Bytes())
	return 0
}

// monitor runs the chosen detector and writes its verified report to w.
func (o options) monitor(w io.Writer) error {
	sched, err := cliutil.ParseCrashes(o.crashes)
	if err != nil {
		return err
	}
	ids, err := scenario.BalancedIDs(o.n, o.l)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "identity assignment (n=%d, ℓ=%d): %v\n", o.n, o.l, ids)
	switch o.detector {
	case "ohp":
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs: ids, Crashes: sched, GST: o.gst, Delta: o.delta, Seed: o.seed, Horizon: o.horizon,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "◇HP̄ and HΩ verified ✔ (Theorem 5, Corollary 2)")
		fmt.Fprintf(w, "  h_trusted stabilized at:  t=%d\n", res.TrustedStabilization)
		fmt.Fprintf(w, "  (h_leader, mult) stable:  t=%d → %s\n", res.LeaderStabilization, res.Leader)
		fmt.Fprintf(w, "  adapted timeouts:         %v\n", res.FinalTimeouts)
		fmt.Fprintf(w, "  traffic: %d POLLING, %d P_REPLY broadcasts over %d vt\n",
			res.Stats.ByTag["POLLING"], res.Stats.ByTag["P_REPLY"], o.horizon)
	case "hsigma":
		crashSteps := make(map[hds.PID]hds.CrashStep, len(sched))
		for p, at := range sched {
			crashSteps[p] = hds.CrashStep{Step: int(at), DeliverProb: 0.5}
		}
		res, err := hds.RunHSigma(hds.HSigmaExperiment{
			IDs: ids, CrashSteps: crashSteps, Steps: o.steps, Seed: o.seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "HΣ verified ✔ (Theorem 6: validity, monotonicity, liveness, safety)")
		fmt.Fprintf(w, "  outputs stabilized at step %d of %d\n", res.StabilizationStep, o.steps)
		fmt.Fprintf(w, "  final |h_quora| per survivor: %v\n", res.QuoraPerProcess)
		fmt.Fprintf(w, "  traffic: %d IDENT broadcasts\n", res.Stats.ByTag["IDENT"])
	default:
		return fmt.Errorf("unknown detector %q (want ohp or hsigma)", o.detector)
	}
	return nil
}
