package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/bench/spec"
)

// Result is one full run: what -compare reads and what
// bench/results/baseline.json holds.
type Result struct {
	Schema int   `json:"schema"`
	Host   Host  `json:"host"`
	Seed   int64 `json:"seed"`
	Quick  bool  `json:"quick,omitempty"`
	// NoisyHost is set when the calibration kernel drifted by more than
	// 5% across the traced run: the host changed speed under the probes.
	NoisyHost     bool                       `json:"noisy_host"`
	Workloads     map[string]*WorkloadResult `json:"workloads"`
	Layers        map[string]LayerValue      `json:"layers"`
	LayerFailures []string                   `json:"layer_failures,omitempty"`
}

// Host says where the numbers were taken; they compare only within one.
type Host struct {
	Name  string `json:"name"`
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

// WorkloadResult is one workload's set.
type WorkloadResult struct {
	Why          string             `json:"why"`
	WorkUnit     string             `json:"work_unit"`
	WorkUnits    int64              `json:"work_units"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Floored      int                `json:"rss_floored"`
	OutputSHA256 string             `json:"output_sha256"`
	Metrics      map[string]Summary `json:"metrics"`
	// Raw holds wall_s, cpu_s and setup_s before host-speed
	// normalisation, and host_speed, the factor itself (below 1: the host
	// was slower than the reference). Reported, never gated.
	Raw      map[string]Summary `json:"raw"`
	Failures []string           `json:"failures,omitempty"`
}

// LayerValue is one per-layer metric of the traced run.
type LayerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Layer string  `json:"layer"`
	Exact bool    `json:"exact,omitempty"`
}

func hostInfo() Host {
	h := Host{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	h.Name, _ = os.Hostname()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 {
		return nil, fmt.Errorf("%s: schema %d, this tool reads schema 1", path, r.Schema)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric by name with its unit.
func (r *Result) print(w io.Writer) {
	fmt.Fprintf(w, "host: %s, %d cpu, %s, %s; seed %d\n", r.Host.CPU, r.Host.NProc, r.Host.Go, r.Host.OS, r.Seed)
	if r.NoisyHost {
		fmt.Fprintln(w, "noisy_host: the calibration kernel drifted by more than 5% during the traced run")
	}
	fmt.Fprintf(w, "\n%-10s %-13s %12s %12s %12s %12s %12s %4s  %s\n", "workload", "metric", "median", "min", "q1", "q3", "max", "n", "unit")
	for _, wl := range spec.Workloads {
		wr := r.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			s := wr.Metrics[m.Name]
			fmt.Fprintf(w, "%-10s %-13s %12.6g %12.6g %12.6g %12.6g %12.6g %4d  %s\n", wl.Name, m.Name, s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N, s.Unit)
		}
		for _, name := range []string{spec.WallS, spec.CPUS, spec.SetupS, "host_speed"} {
			s := wr.Raw[name]
			fmt.Fprintf(w, "%-10s %-13s %12.6g %12.6g %12.6g %12.6g %12.6g %4d  %s\n", wl.Name, "raw "+name, s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N, s.Unit)
		}
		fmt.Fprintf(w, "%-10s ops_attempted=%d ops_failed=%d rss_floored=%d work_units=%d (%s) output_sha256=%.12s\n",
			wl.Name, wr.OpsAttempted, wr.OpsFailed, wr.Floored, wr.WorkUnits, wr.WorkUnit, wr.OutputSHA256)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "%-10s FAILED: %s\n", wl.Name, f)
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "\n%-36s %14s  %-6s %s\n", "layer metric", "value", "unit", "")
		for _, m := range spec.Layers {
			v, ok := r.Layers[m.Name]
			if !ok {
				continue
			}
			note := ""
			if v.Exact {
				note = "exact"
			}
			fmt.Fprintf(w, "%-36s %14.6g  %-6s %s\n", m.Name, v.Value, v.Unit, note)
		}
	}
	for _, f := range r.LayerFailures {
		fmt.Fprintf(w, "layer probe FAILED: %s\n", f)
	}
}

// opsFailed sums the failed reps of every workload.
func (r *Result) opsFailed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.OpsFailed
	}
	return n
}
