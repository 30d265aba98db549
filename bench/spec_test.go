package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/bench/spec"
)

// benchmarkFile mirrors BENCHMARK.json's exact key set.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	reName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	reUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the code that
// emits the metrics in step, and inside the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("top-level keys %v, want exactly %v", got, want)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"sh", "bench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !reName.MatchString(n) {
			t.Errorf("name %q breaks the driver's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec", len(f.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		got := f.Workloads[i]
		name(got.Name)
		if got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec has %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(spec.EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec", len(f.EndToEnd), len(spec.EndToEnd))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		got := f.EndToEnd[i]
		name(got.Name)
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec has %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !reUnit.MatchString(m.Unit) {
			t.Errorf("%s: bound %g or unit %q outside the driver's limits", m.Name, m.Bound, m.Unit)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setup, ok := spec.EndToEndByName(spec.SetupS); !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound: %+v", setup)
	}

	if len(f.PerLayer) != len(spec.Layers) || len(spec.Layers) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec (limit 128)", len(f.PerLayer), len(spec.Layers))
	}
	for i, m := range spec.Layers {
		got := f.PerLayer[i]
		name(got.Name)
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec has %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
		if !reUnit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q outside the driver's limits", m.Name, m.Unit, m.Better)
		}
		for _, w := range m.Moves {
			if _, ok := spec.WorkloadByName(w); !ok {
				t.Errorf("%s moves unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestExpectationsParse keeps bench/expect.json loadable.
func TestExpectationsParse(t *testing.T) {
	x, err := loadExpectations("..")
	if err != nil {
		t.Fatal(err)
	}
	if x.Seed != 1 || x.Live20k.Events == 0 || x.Hunt30.Executed == 0 || x.Tables.Lines == 0 {
		t.Errorf("expect.json is missing counts: %+v", x)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
