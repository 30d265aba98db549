package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/bench/spans"
	"repro/bench/spec"
)

// build compiles the three CLIs, and the layer probes when the traced run
// needs them, into bin. Its time is the layer metric cmd.build_s and is
// kept out of setup_s: it measures the Go build cache, not the program.
func build(bin string, withProbes bool) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return 0, err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return 0, err
	}
	steps := [][]string{
		{"go", "build", "-o", abs + "/", "./cmd/experiments", "./cmd/hdsim", "./cmd/hunt"},
		{"go", "build", "-C", "bench", "-o", filepath.Join(abs, "spawner"), "./spawner"},
	}
	if withProbes {
		steps = append(steps, []string{"go", "build", "-C", "bench", "-o", filepath.Join(abs, "layerprobe"), "./layerprobe"})
	}
	for _, argv := range steps {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%v: %w", argv, err)
		}
	}
	return time.Since(start), nil
}

// layerResult is what the traced run found.
type layerResult struct {
	Layers    map[string]LayerValue
	Spans     []spans.Span
	Attempted int      // probes and timed commands run
	Failed    []string // one line per probe that failed or metric left without a value
}

// layerPass is the traced run. The orchestrator times the whole-binary
// commands itself (root spans cmd.*), writes the two traces the probes
// read, then runs bench/layerprobe as a child and merges what it found.
// workload tags the orchestrator's own spans.
func layerPass(e *env, workload string, buildTime time.Duration) (*layerResult, error) {
	rec := spans.NewRecorder()
	values := map[string]float64{"cmd.build_s": buildTime.Seconds()}
	res := &layerResult{Layers: map[string]LayerValue{}}

	timed := func(name string, argv []string) (sample, string, error) {
		res.Attempted++
		span := rec.Start(name, -1, workload)
		s, out, err := e.spawn(argv)
		rec.End(span)
		if err != nil {
			res.Failed = append(res.Failed, fmt.Sprintf("%s: %v", name, err))
		}
		return s, out, err
	}

	// The traced command line writes the trace every trace and replay
	// probe reads; the same flags without -trace price tracing end to end.
	tracePath := filepath.Join(e.tmp, "layers.bin")
	if _, out, err := timed("cmd.hdsim_traced", e.hdsimLive(tracePath)); err != nil {
		return nil, err
	} else if _, err := checkLive(e, out); err != nil {
		return nil, fmt.Errorf("cmd.hdsim_traced: %w", err)
	}
	if s, _, err := timed("cmd.hdsim_untraced", e.hdsimLive("")); err == nil {
		values["cmd.hdsim_untraced_s"] = s.WallS
	}

	hdsim := filepath.Join(e.bin, "hdsim")
	var startups []float64
	for i := 0; i < 5; i++ {
		if s, _, err := timed("cmd.hdsim_startup", []string{hdsim, "-algo", "fig8", "-n", "5", "-l", "2", "-t", "2"}); err == nil {
			startups = append(startups, 1000*s.WallS)
		}
	}
	if len(startups) > 0 {
		values["cmd.hdsim_startup_ms"] = median(startups)
	}

	ohpPath := filepath.Join(e.tmp, "ohp.bin")
	if _, _, err := timed("cmd.hdsim_ohp_trace", []string{hdsim, "-algo", "ohp", "-n", "6", "-l", "3", "-crashes", "1:30", "-trace", ohpPath, "-trace-format", "binary"}); err != nil {
		return nil, err
	}

	outPath := filepath.Join(e.tmp, "layerprobe.json")
	argv := []string{
		filepath.Join(e.bin, "layerprobe"), "-root", ".", "-tmp", e.tmp, "-seed", strconv.FormatInt(e.seed, 10),
		"-trace", tracePath, "-ohp-trace", ohpPath, "-out", outPath,
	}
	if e.prof.quick {
		argv = append(argv, "-quick")
	}
	span := rec.Start("layerprobe", -1, workload)
	_, _, err := e.spawn(argv)
	rec.End(span)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var probe spans.LayerOutput
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", outPath, err)
	}
	res.Attempted += probe.Attempted
	res.Failed = append(res.Failed, probe.Failed...)
	for name, v := range probe.Metrics {
		values[name] = v
	}

	// The probes' spans hang under the orchestrator's layerprobe span,
	// shifted onto its clock.
	res.Spans = rec.Spans()
	base, shift := len(res.Spans), res.Spans[span].StartNS
	for _, s := range probe.Spans {
		s.StartNS, s.EndNS = s.StartNS+shift, s.EndNS+shift
		if s.Parent < 0 {
			s.Parent = span
		} else {
			s.Parent += base
		}
		res.Spans = append(res.Spans, s)
	}

	// Every metric the spec names must have a value (-quick leaves out
	// the population-scale tables).
	for _, m := range spec.Layers {
		if v, ok := values[m.Name]; ok {
			res.Layers[m.Name] = LayerValue{Value: v, Unit: m.Unit, Layer: m.Layer, Exact: m.Exact}
		} else if !(e.prof.quick && m.Full) {
			res.Failed = append(res.Failed, "no value for "+m.Name)
		}
	}
	return res, nil
}
