// Package metrics implements pass@k (paper Sec. IV-A), the deterministic
// execution-time cost model that stands in for wall-clock Texec, and the
// median, percentile and histogram summaries of the studies and the
// benchmark. The paper's times are dominated by OpenAI API latency on
// their testbed; the cost model preserves the structure (per-stage split,
// method ratios) rather than absolute seconds. Hit Rate (Eq. 1) and Fix
// Rate (Eq. 2) are computed in one place, internal/exp's computeRates,
// from the evaluation records.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CostModel converts counted work into modeled seconds.
type CostModel struct {
	LintSeconds         float64 // one linter pass
	SimSecondsPerVector float64 // one UVM transaction (simulate + compare)
	LLMBaseSeconds      float64 // request overhead per LLM call
	LLMPerKInputTok     float64 // seconds per 1000 prompt tokens
	LLMPerKOutputTok    float64 // seconds per 1000 completion tokens
}

// DefaultCostModel is calibrated against GPT-4-turbo-era API behavior
// (~0.9 s connection + prompt ingest at ~1 s/ktok + generation at ~33
// tok/s) and local tool costs on the paper's EPYC host.
func DefaultCostModel() CostModel {
	return CostModel{
		LintSeconds:         0.08,
		SimSecondsPerVector: 0.004,
		LLMBaseSeconds:      1.5,
		LLMPerKInputTok:     1.2,
		LLMPerKOutputTok:    45.0,
	}
}

// LLMCall returns the modeled latency of one chat completion.
func (c CostModel) LLMCall(inputTokens, outputTokens int) float64 {
	return c.LLMBaseSeconds +
		c.LLMPerKInputTok*float64(inputTokens)/1000 +
		c.LLMPerKOutputTok*float64(outputTokens)/1000
}

// Lint returns the modeled latency of n linter passes.
func (c CostModel) Lint(n int) float64 { return c.LintSeconds * float64(n) }

// Sim returns the modeled latency of simulating n UVM transactions.
func (c CostModel) Sim(n int) float64 { return c.SimSecondsPerVector * float64(n) }

// PassAtK estimates pass@k (Chen et al. 2021) given n samples per problem
// of which c passed, using the unbiased estimator 1 - C(n-c,k)/C(n,k).
func PassAtK(n, c, k int) float64 {
	if n-c < k {
		return 1
	}
	// 1 - prod_{i=n-c+1..n} (1 - k/i)
	p := 1.0
	for i := n - c + 1; i <= n; i++ {
		p *= 1 - float64(k)/float64(i)
	}
	return 1 - p
}

// Median returns the median of xs (0 for empty; the mean of the two
// middle elements for even lengths). The input slice is not modified.
// The coverage studies compare stimulus generators by median rather
// than mean so one saturated or degenerate design cannot carry the
// verdict.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th percentile of xs (p in [0, 100]) with
// linear interpolation between closest ranks, the convention numpy calls
// "linear". Empty input returns 0; p is clamped to [0, 100]; NaN samples
// are dropped before ranking (a NaN has no rank, and letting one into
// the sort would poison every percentile of the series). The input
// slice is not modified. The formal engine's solver statistics
// (conflicts per BMC depth) report p50/p90/p99 through this.
func Percentile(xs []float64, p float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Histogram is a fixed-range, equal-width bucket count of sample values,
// the ASCII companion to Percentile for -v solver statistics.
type Histogram struct {
	Lo, Hi  float64 // value range covered by the buckets
	Counts  []int   // per-bucket counts
	Under   int     // samples below Lo
	Over    int     // samples at or above Hi
	Samples int     // total Add calls
}

// NewHistogram builds an empty histogram of `buckets` equal-width bins
// over [lo, hi). Degenerate ranges or bucket counts collapse to one bin.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, buckets)}
}

// Add records one sample. NaN is rejected without counting: it belongs
// to no bucket, and the int conversion in bucket placement is undefined
// for NaN (an out-of-range index panic on most platforms).
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.Samples++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Format renders the histogram as one line per bucket with a bar scaled
// to barWidth characters (bars scale to the fullest bucket).
func (h *Histogram) Format(barWidth int) string {
	if barWidth < 1 {
		barWidth = 40
	}
	max := 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*barWidth/max)
		fmt.Fprintf(&b, "  [%8.1f, %8.1f) %6d %s\n", h.Lo+float64(i)*width, h.Lo+float64(i+1)*width, c, bar)
	}
	if h.Under > 0 {
		fmt.Fprintf(&b, "  below %.1f: %d\n", h.Lo, h.Under)
	}
	if h.Over > 0 {
		fmt.Fprintf(&b, "  at or above %.1f: %d\n", h.Hi, h.Over)
	}
	return b.String()
}
