package main

import (
	"math"
	"sort"

	"uvllm/internal/metrics"
)

// summary is a timing distribution as the benchmark reports it: median,
// quartiles, the highest percentile the sample supports, and the count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailP is the highest percentile (of 90, 99, 99.9) with at least ten
	// samples beyond it; 0 when the sample supports none.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// summarize computes the summary of xs with interpolated percentiles.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = metrics.Percentile(xs, 50)
	s.Q1 = metrics.Percentile(xs, 25)
	s.Q3 = metrics.Percentile(xs, 75)
	if p := tailPercentile(len(xs)); p > 0 {
		s.TailP = p
		s.Tail = metrics.Percentile(xs, p)
	}
	return s
}

// tailPercentile is the reporting rule for tails: the highest of the
// p90/p99/p99.9 ladder that leaves at least ten samples beyond it, or 0
// when even p90 does not (fewer than 100 samples).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match ones recomputed in Python.
// One value is all three cut points; no values give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the run-to-run spread of a metric: the interquartile
// distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// median is the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
