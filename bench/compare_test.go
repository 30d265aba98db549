package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/bench/spec"
)

// synthetic is a result with tight spreads: every metric's quartiles sit
// 1% either side of its median.
func synthetic() *Result {
	r := &Result{Schema: 1, Seed: 1, Workloads: map[string]*WorkloadResult{}, Layers: map[string]LayerValue{}}
	for i, w := range spec.Workloads {
		wr := &WorkloadResult{OpsAttempted: w.Reps, OutputSHA256: "same", Metrics: map[string]Summary{}}
		for j, m := range spec.EndToEnd {
			wr.Metrics[m.Name] = around(float64(1+i)*float64(2+j), m.Unit)
		}
		r.Workloads[w.Name] = wr
	}
	for _, m := range spec.Layers {
		r.Layers[m.Name] = LayerValue{Value: 100, Unit: m.Unit, Layer: m.Layer, Exact: m.Exact}
	}
	return r
}

func around(median float64, unit string) Summary {
	return Summary{Unit: unit, N: 8, Median: median, Q1: 0.99 * median, Q3: 1.01 * median, Min: 0.98 * median, Max: 1.02 * median}
}

func scaleMetric(r *Result, workload, metric string, f float64) {
	r.Workloads[workload].Metrics[metric] = around(f*r.Workloads[workload].Metrics[metric].Median, "")
}

func scaleLayer(r *Result, name string, f float64) {
	v := r.Layers[name]
	v.Value *= f
	r.Layers[name] = v
}

func verdicts(c *comparison) map[string]string {
	out := map[string]string{}
	for _, r := range c.Rows {
		out[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return out
}

func TestCompareIdentical(t *testing.T) {
	c := compare(synthetic(), synthetic())
	if len(c.Rows) != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Fatalf("%d rows, want every workload × metric", len(c.Rows))
	}
	for k, v := range verdicts(c) {
		if v != verdictOK {
			t.Errorf("%s = %s on identical results", k, v)
		}
	}
	if c.failed() || len(c.aaFailures()) != 0 || len(c.ExactChanged) != 0 || len(c.OutputChanged) != 0 {
		t.Errorf("identical results flagged: %+v", c)
	}
}

// TestPlantedDecodeRegression is the canary the README documents: a 20%
// slower trace decode shows as a replay20k regression, is attributed to
// the trace layer, and leaves the other three workloads unchanged.
func TestPlantedDecodeRegression(t *testing.T) {
	a, b := synthetic(), synthetic()
	scaleLayer(b, "trace.decode_ns_per_event", 1.20)
	scaleLayer(b, "replay.verify_s", 1.14)
	for _, m := range []string{spec.WallS, spec.CPUS} {
		scaleMetric(b, spec.Replay20k, m, 1.0+1.5*mustBound(t, m))
	}
	scaleMetric(b, spec.Replay20k, spec.WorkPerS, 1/(1.0+1.5*mustBound(t, spec.WallS)))

	c := compare(a, b)
	for k, v := range verdicts(c) {
		workload, metric, _ := strings.Cut(k, "/")
		wantRegression := workload == spec.Replay20k && (metric == spec.WallS || metric == spec.CPUS || metric == spec.WorkPerS)
		if wantRegression != (v == verdictRegression) {
			t.Errorf("%s = %s", k, v)
		}
		if workload != spec.Replay20k && v != verdictOK {
			t.Errorf("%s = %s, want unchanged", k, v)
		}
	}
	if !c.failed() {
		t.Error("a regression must fail the comparison")
	}
	attr := c.attribution(spec.Replay20k)
	if len(attr) == 0 || attr[0].Name != "trace.decode_ns_per_event" || attr[0].Layer != "trace" {
		t.Errorf("replay20k attributed to %+v, want trace.decode_ns_per_event first", attr)
	}
	for _, w := range []string{spec.Tables, spec.Live20k, spec.Hunt30} {
		for _, l := range c.attribution(w) {
			if l.Change != 0 {
				t.Errorf("%s: layer metric %s moved by %.2f", w, l.Name, l.Change)
			}
		}
	}
	var buf bytes.Buffer
	c.print(&buf)
	if !strings.Contains(buf.String(), "attributed to layer: trace") {
		t.Errorf("report does not name the trace layer:\n%s", buf.String())
	}
}

func mustBound(t *testing.T, metric string) float64 {
	t.Helper()
	m, ok := spec.EndToEndByName(metric)
	if !ok {
		t.Fatalf("no metric %s", metric)
	}
	return m.Bound
}

func TestPlantedTwentyPercent(t *testing.T) {
	// +20% on a 10%-bounded metric with tight spreads is a regression;
	// the same change in the good direction is not.
	m := spec.Metric{Name: "x", Better: "lower", Bound: 0.10}
	if got := judge(around(10, "s"), around(12, "s"), m).Verdict; got != verdictRegression {
		t.Errorf("+20%% lower-is-better = %s", got)
	}
	if got := judge(around(10, "s"), around(8, "s"), m).Verdict; got != verdictOK {
		t.Errorf("-20%% lower-is-better = %s", got)
	}
	m.Better = "higher"
	if got := judge(around(10, "1/s"), around(8, "1/s"), m).Verdict; got != verdictRegression {
		t.Errorf("-20%% higher-is-better = %s", got)
	}
	if row := judge(around(10, "1/s"), around(10.5, "1/s"), m); row.Verdict != verdictOK || row.Worse >= 0 {
		t.Errorf("+5%% higher-is-better = %+v", row)
	}
}

func TestUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	m := spec.Metric{Name: "x", Better: "lower", Bound: 0.10}
	wide := func(median float64) Summary {
		return Summary{N: 8, Median: median, Q1: 0.8 * median, Q3: 1.2 * median, Min: 0.7 * median, Max: 1.3 * median}
	}
	// Medians 8% apart, quartiles 40% wide: the bound cannot resolve it.
	if got := judge(wide(10), wide(10.8), m).Verdict; got != verdictUnresolved {
		t.Errorf("wide spreads = %s, want unresolved", got)
	}
	// Every rep of B beating every rep of A is a result however wide A is.
	b := Summary{N: 8, Median: 6, Q1: 5.9, Q3: 6.1, Min: 5.8, Max: 6.2}
	if got := judge(wide(10), b, m).Verdict; got != verdictOK {
		t.Errorf("all of B better = %s, want ok", got)
	}
}

func TestExactOutputAndFailureChanges(t *testing.T) {
	a, b := synthetic(), synthetic()
	scaleLayer(b, "sim.sparse_events", 1.000001) // one event in a million
	scaleLayer(b, "sim.sparse_ns_per_event", 1.03)
	b.Workloads[spec.Tables].OutputSHA256 = "other"
	b.Workloads[spec.Hunt30].OpsFailed = 1
	c := compare(a, b)
	if len(c.ExactChanged) != 1 || c.ExactChanged[0].Name != "sim.sparse_events" {
		t.Errorf("exact changes: %+v", c.ExactChanged)
	}
	if len(c.OutputChanged) != 1 || c.OutputChanged[0] != spec.Tables {
		t.Errorf("output changes: %v", c.OutputChanged)
	}
	if len(c.FailedMore) != 1 || c.FailedMore[0] != spec.Hunt30 || !c.failed() {
		t.Errorf("failure-rate changes: %v", c.FailedMore)
	}
	if c.Layers[0].Name != "sim.sparse_ns_per_event" {
		t.Errorf("largest layer delta first: got %s", c.Layers[0].Name)
	}
	if got := c.aaFailures(); len(got) != 2 {
		t.Errorf("A/A failures %v, want the exact count and the output hash", got)
	}
}

func TestAARuleIsTwoSided(t *testing.T) {
	a, b := synthetic(), synthetic()
	scaleMetric(b, spec.Live20k, spec.WallS, 1-1.5*mustBound(t, spec.WallS)) // faster, by more than the bound
	c := compare(a, b)
	if c.failed() {
		t.Error("getting faster is not a regression")
	}
	if got := c.aaFailures(); len(got) != 1 || !strings.Contains(got[0], "live20k wall_s") {
		t.Errorf("A/A failures %v, want live20k wall_s", got)
	}
}
