package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/bench/spec"
)

// Verdicts of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// e2eRow compares one end-to-end metric on one workload.
type e2eRow struct {
	Workload, Metric string
	A, B             Summary
	// Worse is the relative change of the median in the metric's bad
	// direction, base A: +0.20 is 20% worse, whichever way "better" points.
	Worse   float64
	Bound   float64
	Verdict string
}

// layerRow compares one per-layer metric.
type layerRow struct {
	spec.LayerMetric
	A, B   float64
	Change float64 // (B-A)/A
}

// comparison is everything -compare prints.
type comparison struct {
	Rows          []e2eRow
	Layers        []layerRow // largest relative change first
	ExactChanged  []layerRow
	OutputChanged []string // workloads whose output_sha256 differs
	FailedMore    []string // workloads whose ops_failed/ops_attempted rose
}

// worse is the relative change from a to b in the bad direction.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the benchmark's rule to one pairing. Where the two sets'
// interquartile ranges overlap by more than the bound, the spread is
// wider than what the bound can resolve: the pairing is unresolved, not
// unchanged, unless every rep of B beat every rep of A.
func judge(a, b Summary, m spec.Metric) e2eRow {
	row := e2eRow{Metric: m.Name, A: a, B: b, Bound: m.Bound, Worse: worse(a.Median, b.Median, m.Better), Verdict: verdictOK}
	overlap := (math.Min(a.Q3, b.Q3) - math.Max(a.Q1, b.Q1)) / a.Median
	allBetter := b.Max < a.Min
	if m.Better == "higher" {
		allBetter = b.Min > a.Max
	}
	switch {
	case overlap > m.Bound && !allBetter:
		row.Verdict = verdictUnresolved
	case row.Worse > m.Bound:
		row.Verdict = verdictRegression
	}
	return row
}

func compare(a, b *Result) *comparison {
	c := &comparison{}
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			row := judge(wa.Metrics[m.Name], wb.Metrics[m.Name], m)
			row.Workload = w.Name
			c.Rows = append(c.Rows, row)
		}
		if wa.OutputSHA256 != wb.OutputSHA256 {
			c.OutputChanged = append(c.OutputChanged, w.Name)
		}
		// Cross-multiplied: failed/attempted rose.
		if wb.OpsFailed*wa.OpsAttempted > wa.OpsFailed*wb.OpsAttempted {
			c.FailedMore = append(c.FailedMore, w.Name)
		}
	}
	for _, m := range spec.Layers {
		va, oka := a.Layers[m.Name]
		vb, okb := b.Layers[m.Name]
		if !oka || !okb {
			continue
		}
		row := layerRow{LayerMetric: m, A: va.Value, B: vb.Value}
		if va.Value != 0 {
			row.Change = (vb.Value - va.Value) / math.Abs(va.Value)
		}
		if m.Exact && va.Value != vb.Value {
			c.ExactChanged = append(c.ExactChanged, row)
		}
		c.Layers = append(c.Layers, row)
	}
	sort.SliceStable(c.Layers, func(i, j int) bool { return math.Abs(c.Layers[i].Change) > math.Abs(c.Layers[j].Change) })
	return c
}

// regressions returns the pairings judged REGRESSION.
func (c *comparison) regressions() []e2eRow {
	var out []e2eRow
	for _, r := range c.Rows {
		if r.Verdict == verdictRegression {
			out = append(out, r)
		}
	}
	return out
}

// failed reports whether -compare exits 1.
func (c *comparison) failed() bool {
	return len(c.regressions()) > 0 || len(c.FailedMore) > 0
}

// attribution lists the layer metrics expected to move the workload,
// largest change first: where to look for a regression's cause.
func (c *comparison) attribution(workload string) []layerRow {
	var out []layerRow
	for _, l := range c.Layers {
		if slices.Contains(l.Moves, workload) {
			out = append(out, l)
		}
	}
	return out
}

// aaFailures is the A/A rule: two sets of the same binaries must agree
// within the benchmark's own bounds, in either direction, and every exact
// count must repeat.
func (c *comparison) aaFailures() []string {
	var out []string
	for _, r := range c.Rows {
		if math.Abs(r.Worse) > r.Bound {
			out = append(out, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.1f%%, bound %.0f%%", r.Workload, r.Metric, r.A.Median, r.B.Median, 100*math.Abs(r.Worse), 100*r.Bound))
		}
	}
	for _, l := range c.ExactChanged {
		out = append(out, fmt.Sprintf("%s (exact): %.10g became %.10g", l.Name, l.A, l.B))
	}
	for _, w := range c.OutputChanged {
		out = append(out, w+": output_sha256 differs between the two sets")
	}
	return out
}

func (c *comparison) print(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-13s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "verdict")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-10s %-13s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", r.Workload, r.Metric, r.A.Median, r.B.Median, 100*r.Worse, 100*r.Bound, r.Verdict)
	}
	for _, r := range c.regressions() {
		fmt.Fprintf(w, "\n%s %s regressed; layer metrics expected to move %s, largest change first:\n", r.Workload, r.Metric, r.Workload)
		attr := c.attribution(r.Workload)
		for i, l := range attr {
			if i == 3 {
				break
			}
			fmt.Fprintf(w, "  %-36s %12.6g -> %-12.6g %+7.1f%%\n", l.Name, l.A, l.B, 100*l.Change)
		}
		if len(attr) > 0 {
			fmt.Fprintf(w, "  attributed to layer: %s\n", attr[0].Layer)
		}
	}
	fmt.Fprintf(w, "\nper-layer deltas, largest first:\n")
	for _, l := range c.Layers {
		fmt.Fprintf(w, "  %-36s %12.6g -> %-12.6g %+7.1f%%  %s\n", l.Name, l.A, l.B, 100*l.Change, l.Unit)
	}
	for _, l := range c.ExactChanged {
		fmt.Fprintf(w, "EXACT METRIC CHANGED: %s %.10g -> %.10g\n", l.Name, l.A, l.B)
	}
	for _, name := range c.OutputChanged {
		fmt.Fprintf(w, "OUTPUT CHANGED: %s output_sha256 differs\n", name)
	}
	for _, name := range c.FailedMore {
		fmt.Fprintf(w, "MORE FAILURES: %s ops_failed/ops_attempted rose\n", name)
	}
}
