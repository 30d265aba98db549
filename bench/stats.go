package main

import (
	"math"
	"sort"
)

// Summary is a metric's spread over the timed reps of one set.
type Summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// quantile is the exclusive method of Python's statistics.quantiles (the
// one the driver uses): the p-quantile of n sorted values sits at
// position p*(n+1), counted from 1, interpolating and clamping to the ends.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	i := int(math.Floor(pos))
	if i < 1 {
		return sorted[0]
	}
	if i >= n {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i-1] + frac*(sorted[i]-sorted[i-1])
}

func summarize(values []float64, unit string) Summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return Summary{Unit: unit}
	}
	return Summary{
		Unit: unit, N: len(s),
		Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

func median(values []float64) float64 { return summarize(values, "").Median }
