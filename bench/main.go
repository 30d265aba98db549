// Command bench is the repository's benchmark. It runs the real CLIs
// (cmd/experiments, cmd/hdsim, cmd/hunt) as subprocesses, one at a time,
// checks what they print, and reports five end-to-end metrics per
// workload; a separate traced run (bench/layerprobe, its own process)
// times each layer's exported functions from outside. See README.md.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bench/run.sh                             all four workloads + traced run -> bench/out/result.json
//	bench/run.sh -compare A.json B.json      verdict per workload × metric, per-layer attribution
//	bench/run.sh -aa                         two sets on the same binaries must agree within the bounds
//	bench/run.sh -quick                      every code path at toy sizes (what go test runs)
//	bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                         one workload for S seconds, one JSON line (the driver's contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/spec"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

const outDir = "bench/out"

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print one JSON line (tables, live20k, replay20k, hunt30)")
	seed := fs.Int64("seed", 1, "seed handed to hdsim and to the sim probes")
	seconds := fs.Int("seconds", 20, "with -workload: how long to keep starting timed reps")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced layer pass instead")
	quick := fs.Bool("quick", false, "toy sizes, one rep: exercises every workload and probe in seconds")
	aa := fs.Bool("aa", false, "run two full sets back to back and fail unless they agree within the bounds")
	cmp := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	outPath := fs.String("o", filepath.Join(outDir, "result.json"), "where a full run writes its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		a, err := readResult(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResult(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		c := compare(a, b)
		c.print(stdout)
		if c.failed() {
			return 1
		}
		return 0
	}

	if b, err := os.ReadFile("go.mod"); err != nil || !strings.HasPrefix(string(b), "module repro\n") {
		return fail(fmt.Errorf("run from the repository root (no go.mod of module repro here)"))
	}
	e := &env{bin: filepath.Join(outDir, "bin"), tmp: filepath.Join(outDir, "tmp"), prof: fullProfile, seed: *seed, log: stderr}
	if *quick {
		e.prof, e.tmp = quickProfile, filepath.Join(outDir, "tmp-quick")
	} else {
		x, err := loadExpectations(".")
		if err != nil {
			return fail(err)
		}
		e.expect = x
	}
	if err := os.RemoveAll(e.tmp); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.tmp)

	var err error
	switch {
	case *workload != "":
		err = contractRun(e, *workload, time.Duration(*seconds)*time.Second, *traced != 0, stdout)
	case *aa:
		err = aaRun(e, stdout)
	default:
		var res *Result
		if res, err = oneSet(e, *outPath, filepath.Join(outDir, "spans.json")); err == nil {
			res.print(stdout)
			if n := res.opsFailed() + len(res.LayerFailures); n > 0 {
				err = fmt.Errorf("%d reps or probes failed", n)
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// contractOut is the one JSON line the driver reads.
type contractOut struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun measures one workload for the given time (trace off), or
// runs the traced layer pass (trace on), and prints the result line last.
func contractRun(e *env, workload string, budget time.Duration, traced bool, stdout io.Writer) error {
	if _, ok := spec.WorkloadByName(workload); !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	buildTime, err := build(e.bin, traced)
	if err != nil {
		return err
	}
	e.logf("build %.2fs", buildTime.Seconds())
	out := contractOut{Metrics: map[string]metricValue{}}
	if traced {
		lr, err := layerPass(e, workload, buildTime)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(outDir, "spans.json"), lr.Spans); err != nil {
			return err
		}
		if len(lr.Failed) > 0 {
			// The driver wants every per-layer metric or no result line.
			return fmt.Errorf("traced run: %s", strings.Join(lr.Failed, "; "))
		}
		for name, v := range lr.Layers {
			out.Metrics[name] = metricValue{v.Value, v.Unit}
		}
		out.Attempted = lr.Attempted
	} else {
		r := newRun(e, workload)
		if err := r.runFor(budget); err != nil {
			return err
		}
		if len(r.samples) == 0 {
			return fmt.Errorf("%s: no rep succeeded: %s", workload, strings.Join(r.failures, "; "))
		}
		res := r.result()
		for _, m := range spec.EndToEnd {
			s := res.Metrics[m.Name]
			out.Metrics[m.Name] = metricValue{s.Median, s.Unit}
		}
		out.Attempted, out.Failed = res.OpsAttempted, res.OpsFailed
		e.logf("%s: %d reps, raw set-up %.2fs at host speed %.3f, rss floored %d", workload, len(r.samples), r.setupS, r.setupSpeed, res.Floored)
		for i, s := range r.samples {
			e.logf("  rep %d: raw wall %.3fs cpu %.3fs at host speed %.3f, rss %.1f MiB", i+1, s.WallS, s.CPUS, s.Speed, s.RSSMiB)
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// oneSet builds, runs the four workloads interleaved, then the traced
// run, and writes the result and the spans.
func oneSet(e *env, resultPath, spansPath string) (*Result, error) {
	buildTime, err := build(e.bin, true)
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: 1, Host: hostInfo(), Seed: e.seed, Quick: e.prof.quick}
	if res.Workloads, err = runSet(e); err != nil {
		return nil, err
	}
	e.logf("traced layer pass")
	lr, err := layerPass(e, "", buildTime)
	if err != nil {
		return nil, err
	}
	res.Layers, res.LayerFailures = lr.Layers, lr.Failed
	res.NoisyHost = lr.Layers["bench.calib_drift"].Value > 1.05
	if err := writeJSON(spansPath, lr.Spans); err != nil {
		return nil, err
	}
	return res, writeJSON(resultPath, res)
}

// aaRun is the benchmark checking itself: two sets of the same binaries,
// back to back, must agree within the bounds the benchmark gates on.
func aaRun(e *env, stdout io.Writer) error {
	var sets [2]*Result
	for i := range sets {
		e.logf("A/A set %d of 2", i+1)
		res, err := oneSet(e, filepath.Join(outDir, fmt.Sprintf("aa_%d.json", i+1)), filepath.Join(outDir, fmt.Sprintf("aa_%d_spans.json", i+1)))
		if err != nil {
			return err
		}
		sets[i] = res
	}
	c := compare(sets[0], sets[1])
	c.print(stdout)
	failures := c.aaFailures()
	for _, s := range sets {
		if n := s.opsFailed() + len(s.LayerFailures); n > 0 {
			failures = append(failures, fmt.Sprintf("%d reps or probes failed", n))
		}
	}
	if len(failures) > 0 {
		fmt.Fprintln(stdout, "\nA/A FAILED:")
		for _, f := range failures {
			fmt.Fprintln(stdout, "  "+f)
		}
		return fmt.Errorf("two sets of the same binaries disagree")
	}
	fmt.Fprintln(stdout, "\nA/A ok: every end-to-end median within its bound, every exact metric identical")
	return nil
}
