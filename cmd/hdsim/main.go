package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole driver with its process boundary made explicit —
// arguments in, report on stdout, diagnostics on stderr, exit code back —
// so tests drive it in-process. The scenario flags bind straight into the
// trace.Meta fingerprint: the flag surface verbatim is what a binary trace
// embeds and what scenario.Resolve turns into runnable terms, live and on
// replay alike.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	m := &trace.Meta{}
	fs.StringVar(&m.Algo, "algo", "fig8", "fig8, fig9, fig9-anon, ohp (standalone Figure 6 detector), or heartbeat (population-scale churn workload)")
	fs.IntVar(&m.N, "n", 5, "number of processes")
	fs.IntVar(&m.L, "l", 2, "number of distinct identifiers (1 = anonymous, n = unique)")
	fs.IntVar(&m.T, "t", 2, "crash bound for fig8 (t < n/2)")
	fs.StringVar(&m.Crashes, "crashes", "", "crash schedule pid:time[,pid:time...]")
	fs.StringVar(&m.Churn, "churn", "", "crash-recovery churn fraction[:cycles[:down[:up]]], stagger fixed at 7 (all algorithms; consensus runs the rejoin protocol)")
	fs.StringVar(&m.Net, "net", "", "network model spec, which states its own timing: -gst and -delta may not be given beside it (see doc comment)")
	fs.StringVar(&m.Partitions, "partition", "", "partition schedule from-to@cut[,from-to@cut...]: during [from,to) links crossing pid cut are severed")
	fs.Int64Var(&m.Seed, "seed", 1, "random seed (first seed of a sweep)")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to sweep")
	workers := fs.Int("workers", 0, "sweep and replay parallelism (0 = all cores, 1 = serial)")
	fs.Int64Var(&m.Stabilize, "stabilize", 100, "oracle detector stabilization time")
	fs.StringVar(&m.Adversary, "adversary", "rotate", "pre-stabilization oracle behaviour: none, rotate, split")
	fs.StringVar(&m.Detectors, "detectors", "oracle", "oracle, or mp (fig8 only: the Figure 6 stack)")
	fs.Int64Var(&m.GST, "gst", 0, "network GST (0 = fully asynchronous reliable)")
	fs.Int64Var(&m.Delta, "delta", 3, "post-GST latency bound (0 = 3)")
	fs.Int64Var(&m.Horizon, "horizon", 0, "virtual-time horizon (0 = 3000000 for consensus, 5000 for ohp, ten periods for heartbeat)")
	fs.Int64Var(&m.Period, "period", 15, "heartbeat beat interval (heartbeat only)")
	fs.IntVar(&m.Beaters, "beaters", 0, "how many processes beat, the rest listen (heartbeat only; 0 = all n)")
	fs.IntVar(&m.MaxEvents, "max-events", 0, "override the engine's runaway-guard event cap (0 = engine default)")
	var tr traceOut
	fs.StringVar(&tr.path, "trace", "", "stream the full event trace to this file (single runs only)")
	replayPath := fs.String("replay", "", "re-verify a recorded run offline from its v2 binary trace (engine-free; every other scenario flag is ignored — the trace's embedded fingerprint wins)")
	fs.IntVar(&tr.buf, "trace-buf", 0, fmt.Sprintf("trace spill batch size in events (0 = default %d)", trace.DefaultBufSize))
	fs.StringVar(&tr.format, "trace-format", "text", "trace encoding: text (canonical lines) or binary (compact varint stream; read it back with hdsim -replay or tracediff)")
	campaignFlags := cliutil.CampaignFlags(fs)
	startProfiles := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sweep.SetDefaultWorkers(*workers)

	stopProfiles, err := startProfiles()
	if err == nil {
		if *replayPath != "" {
			err = runReplay(*replayPath, stdout)
		} else if err = timingBesideNet(fs, m.Net); err == nil {
			err = runLive(m, *seeds, &tr, campaignFlags, stdout)
		}
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "hdsim:", err)
		return 1
	}
	return 0
}

// timingBesideNet rejects an explicit -gst or -delta beside -net, whose
// spec states the network's timing itself: the resolver would drop them
// without a word. Only the flag set can tell an explicit value from a
// default (-delta's is 3), so the check is here and not in the resolver.
func timingBesideNet(fs *flag.FlagSet, net string) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if net != "" && err == nil && (f.Name == "gst" || f.Name == "delta") {
			err = fmt.Errorf("-%s beside -net %s: the network spec states its own timing (psync:gst:delta)", f.Name, net)
		}
	})
	return err
}

// runLive validates the command line, resolves the scenario — both before
// anything is printed or any file is created — and runs it once or, with
// -seeds k > 1, as a seed-sweep campaign.
func runLive(m *trace.Meta, seeds int, tr *traceOut, campaignFlags func() (campaign.Config, error), stdout io.Writer) error {
	if seeds < 1 {
		return fmt.Errorf("-seeds %d, want >= 1", seeds)
	}
	if err := cliutil.ValidateTraceBuf(tr.buf); err != nil {
		return err
	}
	if err := cliutil.ValidateTraceFormat(tr.format, tr.path); err != nil {
		return err
	}
	cfg, err := campaignFlags()
	if err != nil {
		return err
	}
	sc, err := scenario.Resolve(m)
	if err != nil {
		return err
	}
	if seeds > 1 {
		switch {
		case tr.path != "":
			return fmt.Errorf("-trace applies to single runs: seed sweeps would interleave unrelated traces")
		case m.Algo == "ohp" || m.Algo == "heartbeat":
			return fmt.Errorf("-seeds > 1 is not supported with -algo %s; sweep seeds with the consensus algorithms or via internal/sweep", m.Algo)
		}
		return runSweep(cfg, sc, seeds, stdout)
	}
	if cfg.Shards > 1 || cfg.Dir != "" || cfg.Resume {
		return fmt.Errorf("-shards/-shard/-checkpoint-dir/-resume apply to seed sweeps: set -seeds > 1")
	}

	if err := tr.open(m); err != nil {
		return err
	}
	replay.WriteHeader(stdout, sc)
	res, runErr := sc.Run(m.Seed, tr.rec)
	// Flush before reporting either way: a failed run is exactly when the
	// trace leading up to the failure matters.
	traceErr := tr.close()
	if runErr != nil {
		return fmt.Errorf("verification failed: %w", runErr)
	}
	if traceErr != nil {
		return fmt.Errorf("trace: %w", traceErr)
	}
	replay.WriteReport(stdout, sc, res, true)
	tr.report(stdout)
	return nil
}

// traceOut is the -trace destination. The trace is spilled in batches
// through a trace.Sink, so a huge run's trace streams to disk in constant
// memory instead of accumulating events in the recorder; -trace-format
// binary swaps the canonical text sink for the compact varint encoding —
// roughly an order of magnitude smaller and free of per-event formatting,
// which is what keeps population-scale traced runs disk- and CPU-viable.
type traceOut struct {
	path, format string
	buf          int
	file         *os.File
	rec          *trace.Recorder // nil without -trace: the run's stats-only default applies
}

func (t *traceOut) open(m *trace.Meta) error {
	if t.path == "" {
		return nil
	}
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	t.file = f
	var sink trace.Sink = trace.NewWriterSink(f)
	if t.format == "binary" {
		bs := trace.NewBinarySink(f)
		bs.SetMeta(m)
		sink = bs
	}
	t.rec = trace.NewSpillRecorder(sink, t.buf)
	return nil
}

func (t *traceOut) close() error {
	if t.rec == nil {
		return nil
	}
	err := t.rec.Flush()
	if cerr := t.file.Close(); err == nil {
		err = cerr
	}
	return err
}

func (t *traceOut) report(stdout io.Writer) {
	if t.rec != nil {
		s := t.rec.Stats()
		fmt.Fprintf(stdout, "  trace:            %s (%d deliveries, %d drops)\n", t.path, s.Delivered, s.Dropped)
	}
}

// runReplay re-verifies a recorded run from its trace alone: the scenario
// comes from the embedded fingerprint, the checker inputs from the event
// stream, and the verdict prints through the same renderers the live run
// used. Events stream through a reader a slab at a time, so population-
// scale traces re-verify in constant memory; a finalized heartbeat trace
// is counted in frame-range shards on -workers cores (replay.VerifyFile).
func runReplay(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	err = replay.VerifyFile(f, fi.Size(), stdout)
	var herr *replay.HeaderError
	switch {
	case errors.As(err, &herr):
		return fmt.Errorf("replay: %w", herr.Err)
	case err != nil:
		return fmt.Errorf("verification failed: %w", err)
	}
	return nil
}

// seedRow is one seed's result in a sweep campaign. It is flat and
// JSON-lossless on purpose: rows round-trip through shard checkpoints, so
// the campaign determinism contract requires exact encode/decode.
type seedRow struct {
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Decided    int64  `json:"decided"` // virtual time of the last decision
	Broadcasts int    `json:"broadcasts"`
	Err        string `json:"err,omitempty"`
}

// runSweep executes the scenario across consecutive seeds through the
// campaign layer (sharded/checkpointed/resumable when configured) and
// prints per-seed rows plus min/mean/max aggregates. Everything that
// defines the scenario goes into the campaign id as a hash: checkpoints
// are only interchangeable between runs of the exact same scenario, so
// those from a run with different flags (-crashes, -net, -gst, -t,
// -max-events, …) never verify against this campaign on -resume.
func runSweep(cfg campaign.Config, sc *scenario.Scenario, k int, stdout io.Writer) error {
	m, first := sc.Meta, sc.Meta.Seed
	fp := fnv.New64a()
	fmt.Fprintf(fp, "algo=%s ids=%v t=%d crashes=%s churn=%s net=%s detectors=%s stabilize=%d adversary=%s horizon=%d",
		m.Algo, sc.IDs, m.T, m.Crashes, m.Churn, sc.Net, m.Detectors, m.Stabilize, m.Adversary, sc.Horizon)
	if m.MaxEvents != 0 { // only when set, so uncapped sweeps keep their ids
		fmt.Fprintf(fp, " max-events=%d", m.MaxEvents)
	}
	id := fmt.Sprintf("hdsim-%s-n%d-l%d-seed%d-x%d-%016x", m.Algo, sc.IDs.N(), sc.IDs.DistinctCount(), first, k, fp.Sum64())
	res, err := campaign.Run(cfg, id, k, func(i int) seedRow {
		s := first + int64(i)
		res, err := sc.Run(s, nil)
		if err != nil {
			return seedRow{Seed: s, Err: err.Error()}
		}
		rep := res.Report
		return seedRow{Seed: s, Rounds: rep.MaxRound, Decided: int64(rep.LastDecision), Broadcasts: res.Stats.Broadcasts}
	})
	if err != nil {
		return err
	}
	if !res.Complete {
		fmt.Fprintf(stdout, "campaign %s: shard %d/%d checkpointed in %s (merge with -resume)\n", id, cfg.Shard, cfg.Shards, cfg.Dir)
		return nil
	}
	fmt.Fprintf(stdout, "algo=%s ids=%v crashes=%s seeds=%d..%d workers=%d campaign=%s digest=%.12s\n",
		m.Algo, sc.IDs, m.Crashes, first, first+int64(k)-1, sweep.DefaultWorkers(), id, res.Digest)

	var ok []seedRow
	for _, r := range res.Rows {
		if r.Err != "" {
			fmt.Fprintf(stdout, "  seed=%-5d ✗ %v\n", r.Seed, r.Err)
			continue
		}
		fmt.Fprintf(stdout, "  seed=%-5d rounds=%-3d decided=t=%-8d broadcasts=%d\n",
			r.Seed, r.Rounds, r.Decided, r.Broadcasts)
		ok = append(ok, r)
	}
	if len(ok) == 0 {
		return fmt.Errorf("all %d runs failed verification", k)
	}
	lo, hi, sum := ok[0], ok[0], seedRow{}
	for _, r := range ok {
		lo.Decided, hi.Decided = min(lo.Decided, r.Decided), max(hi.Decided, r.Decided)
		lo.Rounds, hi.Rounds = min(lo.Rounds, r.Rounds), max(hi.Rounds, r.Rounds)
		sum.Decided += r.Decided
		sum.Rounds += r.Rounds
		sum.Broadcasts += r.Broadcasts
	}
	runs := float64(len(ok))
	fmt.Fprintf(stdout, "verified %d/%d runs ✔\n", len(ok), k)
	fmt.Fprintf(stdout, "  decided at (vt): min=%d mean=%.1f max=%d\n", lo.Decided, float64(sum.Decided)/runs, hi.Decided)
	fmt.Fprintf(stdout, "  rounds:          min=%d mean=%.1f max=%d\n", lo.Rounds, float64(sum.Rounds)/runs, hi.Rounds)
	fmt.Fprintf(stdout, "  broadcasts:      mean=%.1f\n", float64(sum.Broadcasts)/runs)
	if failures := k - len(ok); failures > 0 {
		return fmt.Errorf("%d/%d runs failed verification", failures, k)
	}
	return nil
}
