package main

import (
	"math"
	"testing"
	"time"

	"repro/bench/hostspeed"
)

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) of these ten values is
	// [2.75, 5.5, 8.25]; of the five, [1.5, 3.0, 4.5].
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(ten, "s")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 || s.Unit != "s" {
		t.Errorf("summarize(ten) = %+v", s)
	}
	s = summarize([]float64{5, 4, 3, 2, 1}, "")
	if s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 {
		t.Errorf("summarize(five) = %+v", s)
	}
	if ten[0] != 10 {
		t.Error("summarize sorted its argument in place")
	}
}

func TestSummarizeSmall(t *testing.T) {
	s := summarize([]float64{2.5}, "s")
	if s.Median != 2.5 || s.Q1 != 2.5 || s.Q3 != 2.5 || s.N != 1 {
		t.Errorf("one value: %+v", s)
	}
	s = summarize([]float64{1, 3}, "s")
	if s.Median != 2 || s.Q1 != 1 || s.Q3 != 3 {
		t.Errorf("two values: %+v", s)
	}
	if s = summarize(nil, "s"); s.N != 0 || s.Median != 0 {
		t.Errorf("no values: %+v", s)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestSpeedFactor(t *testing.T) {
	nominal := time.Duration(hostspeed.NominalS * float64(time.Second))
	if got := speedFactor(nominal, nominal); math.Abs(got-1) > 1e-9 {
		t.Errorf("reference host: factor %g, want 1", got)
	}
	// A kernel that took a quarter longer before and after: the host ran
	// at 0.8 of reference speed, and 10 raw seconds are 8 reference ones.
	if got := speedFactor(nominal*5/4, nominal*5/4); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("slow host: factor %g, want 0.8", got)
	}
	if got := speedFactor(nominal, nominal*3/2); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("host slowing during the rep: factor %g, want 0.8 (mean of the readings)", got)
	}
}
