package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/bench/hostspeed"
	"repro/bench/spec"
)

// profile holds the workloads' dimensions. The full profile is the
// benchmark; the quick one exists so go test can drive every code path in
// seconds, and its numbers mean nothing.
type profile struct {
	quick         bool
	n, l, beaters int
	budget        int
	tableIDs      []string
	// warm adds the untimed set-up rep of each workload: a -workers 1
	// reference for tables and hunt30, a warm-up for the other two.
	warm bool
}

var (
	fullProfile  = profile{n: 20000, l: 100, beaters: 100, budget: 30, tableIDs: spec.ExperimentIDs, warm: true}
	quickProfile = profile{quick: true, n: 500, l: 10, beaters: 10, budget: 5, tableIDs: spec.QuickExperimentIDs()}
)

// huntSeed is the campaign master seed of hunt30. It is part of the
// workload, not an input drawn from the bench seed: the 16 mutants a
// master seed draws cost anywhere from 1 to 4 s on top of the 3 s of
// structured seeds (seeds 1-6 measured 2.6-5.7 s per campaign), so
// runs at different bench seeds would not be runs of the same workload.
const huntSeed = 1

// expectations pins the deterministic counts of the full profile at seed
// 1 (bench/expect.json): a change that moves one of them changed what the
// program computes, not how fast.
type expectations struct {
	Seed    int64 `json:"seed"`
	Live20k struct {
		Events     int64 `json:"events"`
		Deliveries int64 `json:"deliveries"`
		Drops      int64 `json:"drops"`
		Recoveries int64 `json:"recoveries"`
	} `json:"live20k"`
	Hunt30 struct {
		Executed int64 `json:"executed"`
		Coverage int64 `json:"coverage"`
	} `json:"hunt30"`
	Tables struct {
		Lines int64 `json:"lines"`
	} `json:"tables"`
}

func loadExpectations(root string) (*expectations, error) {
	b, err := os.ReadFile(filepath.Join(root, "bench", "expect.json"))
	if err != nil {
		return nil, err
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("bench/expect.json: %w", err)
	}
	return &e, nil
}

// env is one invocation's surroundings. Paths are relative to the
// repository root, which is the working directory: hdsim echoes the trace
// path it was given, and a stable path keeps its stdout comparable
// between runs.
type env struct {
	bin    string // built CLIs
	tmp    string // traces and checkpoints; emptied at start and end
	prof   profile
	seed   int64
	expect *expectations // nil under the quick profile
	log    io.Writer

	// kernel is the host-speed reference, built on first use (the
	// traced run never needs it); lastRef is its most recent reading.
	kernel  *hostspeed.Kernel
	lastRef time.Duration
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// beside runs f between two readings of the reference kernel and returns
// the factor that restates f's times on the reference host's clock:
// NominalS over the mean of the two readings. Consecutive calls share the
// reading between them. The quick profile's numbers mean nothing, so it
// skips the kernel and the factor is 1.
func (e *env) beside(f func()) float64 {
	if e.prof.quick {
		f()
		return 1
	}
	if e.kernel == nil {
		e.kernel = hostspeed.New()
		e.lastRef = e.kernel.Run()
	}
	before := e.lastRef
	f()
	e.lastRef = e.kernel.Run()
	return speedFactor(before, e.lastRef)
}

// speedFactor is NominalS over the mean of the two readings: 1 on the
// reference host, 0.8 when the kernel took a quarter longer than there.
func speedFactor(before, after time.Duration) float64 {
	return hostspeed.NominalS / ((before + after).Seconds() / 2)
}

// hdsimLive is the population-scale heartbeat command line; trace ""
// leaves tracing off.
func (e *env) hdsimLive(trace string) []string {
	argv := []string{
		filepath.Join(e.bin, "hdsim"), "-algo", "heartbeat",
		"-n", strconv.Itoa(e.prof.n), "-l", strconv.Itoa(e.prof.l), "-beaters", strconv.Itoa(e.prof.beaters),
		"-churn", "0.05:1:12:20:0", "-horizon", "60", "-max-events", "100000000",
		"-seed", strconv.FormatInt(e.seed, 10),
	}
	if trace != "" {
		argv = append(argv, "-trace", trace, "-trace-format", "binary")
	}
	return argv
}

// run is one workload's state across a set.
type run struct {
	w spec.Workload
	e *env

	setupS     float64 // raw seconds
	setupSpeed float64 // host-speed factor beside the set-up
	samples    []sample
	attempted  int
	failures   []string
	workUnits  int64

	refOut   string // stdout every rep must reproduce byte for byte
	liveOut  string // replay20k: stdout of the live run that wrote its trace
	traceSHA string // live20k: SHA-256 every rep's trace must reproduce
}

func newRun(e *env, name string) *run {
	w, ok := spec.WorkloadByName(name)
	if !ok {
		panic("bench: unknown workload " + name)
	}
	return &run{w: w, e: e}
}

func (r *run) tracePath() string { return filepath.Join(r.e.tmp, r.w.Name+".bin") }

// argv is the timed command line. serial swaps -workers 2 for -workers 1:
// the reference whose output the parallel reps must reproduce.
func (r *run) argv(serial bool) []string {
	workers := "2"
	if serial {
		workers = "1"
	}
	switch r.w.Name {
	case spec.Tables:
		argv := []string{filepath.Join(r.e.bin, "experiments"), "-workers", workers}
		if r.e.prof.quick {
			argv = append(argv, "-only", strings.Join(r.e.prof.tableIDs, ","))
		}
		return argv
	case spec.Live20k:
		return r.e.hdsimLive(r.tracePath())
	case spec.Replay20k:
		return []string{filepath.Join(r.e.bin, "hdsim"), "-replay", r.tracePath()}
	case spec.Hunt30:
		return []string{
			filepath.Join(r.e.bin, "hunt"), "-budget", strconv.Itoa(r.e.prof.budget),
			"-seed", strconv.Itoa(huntSeed), "-workers", workers,
		}
	}
	panic("bench: unknown workload " + r.w.Name)
}

// setup does everything a workload needs before its first timed rep and
// times it. Its output is the reference the timed reps are held to.
func (r *run) setup() (err error) {
	r.setupSpeed = r.e.beside(func() {
		start := time.Now()
		err = r.setupReps()
		r.setupS = time.Since(start).Seconds()
	})
	return err
}

func (r *run) setupReps() error {
	if r.w.Name == spec.Replay20k {
		_, out, err := r.e.spawn(r.e.hdsimLive(r.tracePath()))
		if err == nil {
			_, err = checkLive(r.e, out)
		}
		if err != nil {
			return fmt.Errorf("%s: writing the trace: %w", r.w.Name, err)
		}
		r.liveOut = out
	}
	if !r.e.prof.warm {
		return nil
	}
	serial := r.w.Name == spec.Tables || r.w.Name == spec.Hunt30
	_, out, err := r.e.spawn(r.argv(serial))
	if err == nil {
		err = r.check(out)
	}
	if err != nil {
		return fmt.Errorf("%s: set-up rep: %w", r.w.Name, err)
	}
	return nil
}

// rep runs one timed rep. A rep that exits non-zero or fails a check is
// counted and its time is left out.
func (r *run) rep() {
	r.attempted++
	var s sample
	var out string
	var err error
	speed := r.e.beside(func() { s, out, err = r.e.spawn(r.argv(false)) })
	s.Speed = speed
	if err == nil {
		err = r.check(out)
	}
	if err != nil {
		r.failures = append(r.failures, err.Error())
		r.e.logf("  %s rep %d FAILED: %v", r.w.Name, r.attempted, err)
		return
	}
	r.samples = append(r.samples, s)
}

// check holds one run's stdout to the workload's correctness rules and
// records its work count. The first output seen becomes the reference.
func (r *run) check(out string) error {
	var units int64
	var err error
	switch r.w.Name {
	case spec.Tables:
		units, err = checkTables(r.e, out)
	case spec.Live20k:
		units, err = checkLive(r.e, out)
		if err == nil {
			err = r.checkTraceFile()
		}
	case spec.Replay20k:
		units, err = checkReplay(r.e, out, r.liveOut)
	case spec.Hunt30:
		units, err = checkHunt(r.e, out)
	}
	if err != nil {
		return err
	}
	if r.refOut == "" {
		r.refOut, r.workUnits = out, units
	} else if out != r.refOut {
		return fmt.Errorf("stdout differs from the set's reference output (sha256 %.12s vs %.12s)", sha256Hex([]byte(out)), sha256Hex([]byte(r.refOut)))
	}
	return nil
}

func (r *run) checkTraceFile() error {
	sha, err := fileSHA256(r.tracePath())
	if err != nil {
		return err
	}
	if r.traceSHA == "" {
		r.traceSHA = sha
	} else if sha != r.traceSHA {
		return fmt.Errorf("trace differs from the set's first trace (sha256 %.12s vs %.12s)", sha, r.traceSHA)
	}
	return nil
}

func checkTables(e *env, out string) (int64, error) {
	t := parseTables(out)
	if !slices.Equal(t.IDs, e.prof.tableIDs) {
		return 0, fmt.Errorf("tables printed %v, want %v", t.IDs, e.prof.tableIDs)
	}
	if t.Crosses > 0 {
		return 0, fmt.Errorf("%d cells failed to verify (✗)", t.Crosses)
	}
	if t.Lines == 0 {
		return 0, fmt.Errorf("no table lines")
	}
	if e.expect != nil && t.Lines != e.expect.Tables.Lines {
		return 0, fmt.Errorf("%d table lines, expect.json says %d", t.Lines, e.expect.Tables.Lines)
	}
	return t.Lines, nil
}

// maxQueueHW is the lazy fan-out witness: the queue tracks broadcasts in
// flight, so at 100 beaters it stays in the low thousands; n² copies
// would be 400 million.
const maxQueueHW = 10000

func checkLive(e *env, out string) (int64, error) {
	h, err := parseHdsim(out)
	if err != nil {
		return 0, err
	}
	switch {
	case !h.Verified:
		return 0, fmt.Errorf("no \"verified ✔\" line")
	case !h.HasEngineLines || h.Stop != "horizon":
		return 0, fmt.Errorf("run did not reach its horizon (stop: %q)", h.Stop)
	case h.QueueHW >= maxQueueHW:
		return 0, fmt.Errorf("queue high-water %d >= %d: fan-out is no longer lazy", h.QueueHW, maxQueueHW)
	case !h.HasFile || h.TraceDeliv != h.Deliveries || h.TraceDrops != h.Drops:
		return 0, fmt.Errorf("trace line disagrees with the engine's deliveries/drops")
	}
	if x := e.expect; x != nil && e.seed == x.Seed {
		if h.Events != x.Live20k.Events || h.Deliveries != x.Live20k.Deliveries || h.Drops != x.Live20k.Drops || h.Recoveries != x.Live20k.Recoveries {
			return 0, fmt.Errorf("counts %d/%d/%d/%d (events/deliveries/drops/recoveries) differ from expect.json", h.Events, h.Deliveries, h.Drops, h.Recoveries)
		}
	}
	return h.Events, nil
}

func checkReplay(e *env, out, liveOut string) (int64, error) {
	h, err := parseHdsim(out)
	if err != nil {
		return 0, err
	}
	if !h.Verified {
		return 0, fmt.Errorf("no \"verified ✔\" line")
	}
	if h.HasEngineLines {
		return 0, fmt.Errorf("replay printed engine lines: it is meant to be engine-free")
	}
	if sharedLines(out, replayOnly) != sharedLines(liveOut, liveOnly) {
		return 0, fmt.Errorf("replay report differs from the live run's on the lines they share")
	}
	if x := e.expect; x != nil && e.seed == x.Seed {
		if h.Deliveries != x.Live20k.Deliveries || h.Drops != x.Live20k.Drops || h.Recoveries != x.Live20k.Recoveries {
			return 0, fmt.Errorf("counts %d/%d/%d (deliveries/drops/recoveries) differ from expect.json", h.Deliveries, h.Drops, h.Recoveries)
		}
	}
	return h.Deliveries + h.Drops, nil
}

func checkHunt(e *env, out string) (int64, error) {
	h, err := parseHunt(out)
	if err != nil {
		return 0, err
	}
	if h.Findings != 0 {
		return 0, fmt.Errorf("campaign reported %d findings", h.Findings)
	}
	if x := e.expect; x != nil && (h.Executed != x.Hunt30.Executed || h.Coverage != x.Hunt30.Coverage) {
		return 0, fmt.Errorf("executed=%d coverage=%d, expect.json says %d/%d", h.Executed, h.Coverage, x.Hunt30.Executed, x.Hunt30.Coverage)
	}
	return h.Executed, nil
}

// result folds the set's samples into the workload's metrics.
func (r *run) result() *WorkloadResult {
	res := &WorkloadResult{
		Why: r.w.Why, WorkUnit: r.w.WorkUnit, WorkUnits: r.workUnits,
		OpsAttempted: r.attempted, OpsFailed: len(r.failures), Failures: r.failures,
		Metrics: map[string]Summary{},
	}
	var wall, cpu, rss, rate, rawWall, rawCPU, speed []float64
	for _, s := range r.samples {
		wall = append(wall, s.WallS*s.Speed)
		cpu = append(cpu, s.CPUS*s.Speed)
		rate = append(rate, float64(r.workUnits)/(s.WallS*s.Speed))
		rawWall, rawCPU, speed = append(rawWall, s.WallS), append(rawCPU, s.CPUS), append(speed, s.Speed)
		if s.Floored {
			res.Floored++
		} else {
			rss = append(rss, s.RSSMiB)
		}
	}
	if len(rss) == 0 {
		// Every reading sat on the spawner's own floor. Report them
		// rather than nothing; Floored == samples says how to read it.
		for _, s := range r.samples {
			rss = append(rss, s.RSSMiB)
		}
	}
	res.Metrics[spec.WallS] = summarize(wall, "s")
	res.Metrics[spec.CPUS] = summarize(cpu, "s")
	res.Metrics[spec.PeakRSSMiB] = summarize(rss, "MiB")
	res.Metrics[spec.WorkPerS] = summarize(rate, "1/s")
	res.Metrics[spec.SetupS] = summarize([]float64{r.setupS * r.setupSpeed}, "s")
	res.Raw = map[string]Summary{
		spec.WallS:   summarize(rawWall, "s"),
		spec.CPUS:    summarize(rawCPU, "s"),
		spec.SetupS:  summarize([]float64{r.setupS}, "s"),
		"host_speed": summarize(speed, "ratio"),
	}
	out := r.refOut
	if r.w.Name == spec.Live20k {
		out += r.traceSHA // the trace is this workload's real output
	}
	res.OutputSHA256 = sha256Hex([]byte(out))
	return res
}

// runFor is the contract mode's loop: set up once, then timed reps until
// the next one would overrun the budget.
func (r *run) runFor(budget time.Duration) error {
	if err := r.setup(); err != nil {
		return err
	}
	start := time.Now()
	for {
		if n := len(r.samples); n > 0 {
			var walls []float64
			for _, s := range r.samples {
				walls = append(walls, s.WallS)
			}
			next := time.Duration(median(walls)*float64(time.Second)) + r.e.lastRef
			if time.Since(start)+next > budget {
				return nil
			}
		} else if r.attempted > 0 && time.Since(start) > budget {
			return nil // every rep so far failed
		}
		r.rep()
	}
}

// runSet is the full mode's loop: every workload set up, then their reps
// interleaved in proportion to their counts, so a slow minute on the host
// lands on all four workloads rather than on whichever was running.
func runSet(e *env) (map[string]*WorkloadResult, error) {
	reps := func(w spec.Workload) int {
		if e.prof.quick {
			return 1
		}
		return w.Reps
	}
	var runs []*run
	for _, w := range spec.Workloads {
		r := newRun(e, w.Name)
		e.logf("set-up %s", w.Name)
		if err := r.setup(); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	for {
		// Next is the workload that is proportionally furthest behind.
		var next *run
		for _, r := range runs {
			total := reps(r.w)
			if r.attempted >= total {
				continue
			}
			if next == nil || r.attempted*reps(next.w) < next.attempted*total {
				next = r
			}
		}
		if next == nil {
			break
		}
		next.rep()
		e.logf("  %-9s rep %d/%d", next.w.Name, next.attempted, reps(next.w))
	}
	out := map[string]*WorkloadResult{}
	for _, r := range runs {
		out[r.w.Name] = r.result()
	}
	return out, nil
}
