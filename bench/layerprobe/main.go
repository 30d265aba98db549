// Command layerprobe is the benchmark's traced run: it times calls into
// each layer's exported functions from outside, one probe per root span,
// and writes the per-layer metrics and the spans they were derived from
// as one JSON object. The orchestrator (package repro/bench) runs it as a
// child process so its working memory never floors the RSS the
// orchestrator reads for the end-to-end workloads.
//
// The probes import only the symbols bench/README.md lists under "Pinned
// surface"; consensus and detector probes go through scenario JSON files
// (bench/scenarios) and hunt.Scenario.Run, never through runner structs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/bench/hostspeed"
	"repro/bench/spans"
	"repro/bench/spec"
)

// sizes are the probe dimensions; -quick shrinks them so the whole pass
// runs in a few seconds under go test.
type sizes struct {
	sparseN, sparseL, sparseBeaters int
	sparseRuns                      int // bare/probed pairs; the minimum of each side is reported
	repeats                         int // runs of each short probe; the fastest is reported
	denseN                          int
	timerN                          int
	timerHorizon                    int64
	netN, netBeaters                int
	recordEvents                    int
	coreSeeds                       int
	sweepItems, sweepRuns           int
	campaignRows                    int
	mutateDraws                     int
	experiments                     []string
	// Zero means all of them / the runner's default: only -quick cuts these.
	huntSeeds, corpusEntries int
	lossyHorizon             int64
}

var fullSizes = sizes{
	sparseN: 20000, sparseL: 100, sparseBeaters: 100, sparseRuns: 2, repeats: 3,
	denseN:       1000,
	timerN:       1000,
	timerHorizon: 1000,
	netN:         5000, netBeaters: 50,
	recordEvents: 1_000_000,
	coreSeeds:    200,
	sweepItems:   200_000, sweepRuns: 64,
	campaignRows: 20_000,
	mutateDraws:  10_000,
	experiments:  spec.ExperimentIDs,
}

var quickSizes = sizes{
	sparseN: 500, sparseL: 10, sparseBeaters: 10, sparseRuns: 1, repeats: 1,
	denseN:       100,
	timerN:       100,
	timerHorizon: 100,
	netN:         300, netBeaters: 10,
	recordEvents: 50_000,
	coreSeeds:    10,
	sweepItems:   10_000, sweepRuns: 8,
	campaignRows: 1_000,
	mutateDraws:  500,
	experiments:  spec.QuickExperimentIDs(),
	// The structured seeds before the first partitioned one, and the
	// corpus entries before it: the rest poll to their horizons for a
	// second each.
	huntSeeds: 11, corpusEntries: 3,
	lossyHorizon: 20_000,
}

// ctx is what every probe sees.
type ctx struct {
	sz      sizes
	seed    int64
	root    string // repository root: scenario files and the hunt corpus
	tmp     string // scratch directory the orchestrator owns
	trace   string // binary trace written by the live20k command line
	ohp     string // small binary trace of an ohp run
	rec     *spans.Recorder
	metrics map[string]float64

	// Shared between the trace and replay probes: the trace read once,
	// and what a decode-only pass over it cost.
	traceData []byte
	traceRead time.Duration
	decode    time.Duration
}

func (c *ctx) set(name string, v float64) {
	if _, ok := spec.LayerByName(name); !ok {
		panic("layerprobe: metric not in spec: " + name)
	}
	c.metrics[name] = v
}

// probe is one root span. workload tags the span with the end-to-end
// workload its metrics are expected to move.
type probe struct {
	name     string
	workload string
	run      func(c *ctx, span int) error
}

// probes run in this order: the calibration kernel brackets the pass, and
// the allocation-sensitive sim probes run before anything has grown the heap.
func probes() []probe {
	return []probe{
		{"sim.sparse", spec.Live20k, probeSparse},
		{"sim.dense", spec.Tables, probeDense},
		{"sim.timer", spec.Hunt30, probeTimer},
		{"sim.net", spec.Tables, probeNets},
		{"trace.record", spec.Live20k, probeRecord},
		{"trace.decode", spec.Replay20k, probeDecode},
		{"trace.index", "", probeIndex},
		{"replay.verify", spec.Replay20k, probeReplay},
		{"replay.verify_ohp", "", probeReplayOHP},
		{"fd.ohp", spec.Tables, probeOHP},
		{"core.consensus", spec.Hunt30, probeCore},
		{"core.lossy", spec.Hunt30, probeLossy},
		{"sweep", spec.Tables, probeSweep},
		{"campaign", spec.Tables, probeCampaign},
		{"experiments", spec.Tables, probeExperiments},
		{"hunt.seeds", spec.Hunt30, probeHuntSeeds},
		{"hunt.mutate", spec.Hunt30, probeMutate},
		{"hunt.corpus", spec.Hunt30, probeCorpus},
	}
}

func main() {
	quick := flag.Bool("quick", false, "shrink every probe (go test)")
	seed := flag.Int64("seed", 1, "engine seed for the sim probes")
	root := flag.String("root", ".", "repository root")
	tmp := flag.String("tmp", "", "scratch directory (required)")
	tracePath := flag.String("trace", "", "binary trace of the live20k command line (required)")
	ohpPath := flag.String("ohp-trace", "", "binary trace of a small ohp run (required)")
	out := flag.String("out", "", "write the result JSON here (required)")
	flag.Parse()
	if *tmp == "" || *tracePath == "" || *ohpPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "layerprobe: -tmp, -trace, -ohp-trace and -out are required")
		os.Exit(2)
	}
	// Two workers everywhere, like the CLI workloads: numbers must not
	// depend on how many cores the host has.
	runtime.GOMAXPROCS(2)

	c := &ctx{
		sz: fullSizes, seed: *seed, root: *root, tmp: *tmp,
		trace: *tracePath, ohp: *ohpPath,
		rec: spans.NewRecorder(), metrics: map[string]float64{},
	}
	if *quick {
		c.sz = quickSizes
	}

	// The host-speed kernel brackets the pass: if it drifts, the host
	// changed speed under the probes and every host-time number is
	// suspect. -quick has no use for the witness and skips its 3 s.
	var kernel *hostspeed.Kernel
	if !*quick {
		kernel = hostspeed.New()
	}
	var refs []time.Duration
	reading := func() {
		if kernel != nil {
			refs = append(refs, kernel.Run())
		}
	}

	res := spans.LayerOutput{}
	start := time.Now()
	reading()
	list := probes()
	for i, p := range list {
		// Each probe starts from a collected heap, so what an earlier
		// probe left behind is not swept on a later probe's clock.
		runtime.GC()
		span := c.rec.Start(p.name, -1, p.workload)
		err := runProbe(p, c, span)
		c.rec.End(span)
		res.Attempted++
		if err != nil {
			res.Failed = append(res.Failed, fmt.Sprintf("%s: %v", p.name, err))
		}
		if i == len(list)/2 {
			reading()
		}
	}
	reading()
	wall := time.Since(start)

	var sum time.Duration
	if len(refs) > 0 {
		lo, hi := refs[0], refs[0]
		for _, d := range refs {
			lo, hi = min(lo, d), max(hi, d)
			sum += d
		}
		c.set("bench.calib_ms", ms(sum)/float64(len(refs)))
		c.set("bench.calib_drift", float64(hi)/float64(lo))
	}
	all := c.rec.Spans()
	c.set("bench.span_overhead_s", (wall - spans.RootTotal(all) - sum).Seconds())

	res.Metrics = c.metrics
	res.Spans = all
	res.WallS = wall.Seconds()
	b, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(*out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
}

// runProbe turns a probe panic (an API the probe drives rejected its
// input) into that probe's failure, so one broken layer cannot hide the
// numbers of the others.
func runProbe(p probe, c *ctx, span int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.run(c, span)
}

// best runs f k times and keeps the fastest. Interference from the host
// only ever adds time, so the minimum of a few short runs is the steadiest
// estimate of what the code itself costs.
func best(k int, f func() (time.Duration, error)) (time.Duration, error) {
	var lo time.Duration
	for i := 0; i < k; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < lo {
			lo = d
		}
	}
	return lo, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
