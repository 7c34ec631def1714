package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCostModelLLMCall(t *testing.T) {
	c := DefaultCostModel()
	base := c.LLMCall(0, 0)
	if base != c.LLMBaseSeconds {
		t.Errorf("zero-token call = %f", base)
	}
	if c.LLMCall(1000, 0) != c.LLMBaseSeconds+c.LLMPerKInputTok {
		t.Error("input token pricing wrong")
	}
	if c.LLMCall(0, 1000) != c.LLMBaseSeconds+c.LLMPerKOutputTok {
		t.Error("output token pricing wrong")
	}
	if c.Lint(3) != 3*c.LintSeconds || c.Sim(100) != 100*c.SimSecondsPerVector {
		t.Error("tool pricing wrong")
	}
}

func TestPassAtK(t *testing.T) {
	// k == n means guaranteed inclusion when any sample passed.
	if got := PassAtK(5, 1, 5); got != 1 {
		t.Errorf("pass@5 of 1/5 = %f, want 1", got)
	}
	// No passing samples: probability 0.
	if got := PassAtK(5, 0, 1); got != 0 {
		t.Errorf("pass@1 of 0/5 = %f, want 0", got)
	}
	// c == n: always 1.
	if got := PassAtK(5, 5, 1); got != 1 {
		t.Errorf("pass@1 of 5/5 = %f", got)
	}
	// pass@1 equals c/n.
	if got := PassAtK(10, 3, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("pass@1 of 3/10 = %f, want 0.3", got)
	}
}

func TestQuickPassAtKMonotonic(t *testing.T) {
	prop := func(n8, c8, k8 uint8) bool {
		n := int(n8%20) + 1
		c := int(c8) % (n + 1)
		k := int(k8%uint8(n)) + 1
		p := PassAtK(n, c, k)
		if p < 0 || p > 1 {
			return false
		}
		// Monotonic in c.
		if c < n && PassAtK(n, c+1, k) < p-1e-12 {
			return false
		}
		// Monotonic in k.
		if k < n && PassAtK(n, c, k+1) < p-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMedian(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Fatalf("Median(nil) = %v", got)
	}
	if got := Median([]float64{3}); got != 3 {
		t.Fatalf("Median single = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v", got)
	}
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatal("Median mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty input must return 0")
	}
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {-5, 1}, {150, 4},
		{50, 2.5},  // halfway between 2 and 3
		{25, 1.75}, // rank 0.75
		{75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 || xs[3] != 2 {
		t.Fatal("Percentile modified its input")
	}
	// Median and the 50th percentile agree on both parities.
	for _, n := range []int{5, 6} {
		var ys []float64
		for i := n; i > 0; i-- {
			ys = append(ys, float64(i))
		}
		if m, p := Median(ys), Percentile(ys, 50); math.Abs(m-p) > 1e-12 {
			t.Fatalf("n=%d: median %v != p50 %v", n, m, p)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Samples != 7 || h.Under != 1 || h.Over != 2 {
		t.Fatalf("counters: %+v", h)
	}
	want := []int{2, 1, 0, 0, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, c, want[i], h)
		}
	}
	out := h.Format(20)
	if out == "" || !strings.Contains(out, "#") {
		t.Fatalf("Format produced no bars:\n%s", out)
	}
	if !strings.Contains(out, "below") || !strings.Contains(out, "at or above") {
		t.Fatalf("Format must report out-of-range samples:\n%s", out)
	}
	// Degenerate construction collapses safely.
	d := NewHistogram(3, 3, 0)
	d.Add(3)
	if len(d.Counts) != 1 || d.Counts[0] != 1 {
		t.Fatalf("degenerate histogram: %+v", d)
	}
}

// TestPercentileEdgeCases pins the degenerate inputs the metrics
// endpoints feed in practice: empty windows, single samples, all-equal
// series, and series polluted by NaN (which must be dropped, not allowed
// to poison the sort).
func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile([7], %v) = %v, want 7", p, got)
		}
		if got := Percentile([]float64{3, 3, 3, 3}, p); got != 3 {
			t.Fatalf("Percentile(all-equal, %v) = %v, want 3", p, got)
		}
	}
	// Clamping beyond the [0, 100] domain.
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -10); got != 1 {
		t.Fatalf("Percentile(p<0) = %v, want min", got)
	}
	if got := Percentile(xs, 200); got != 3 {
		t.Fatalf("Percentile(p>100) = %v, want max", got)
	}
	// NaN samples are dropped; the remaining series ranks normally.
	nan := math.NaN()
	if got := Percentile([]float64{nan, 1, nan, 3}, 100); got != 3 {
		t.Fatalf("Percentile with NaNs = %v, want 3", got)
	}
	if got := Percentile([]float64{nan, nan}, 50); got != 0 {
		t.Fatalf("Percentile(all-NaN) = %v, want 0", got)
	}
	if got := Percentile([]float64{nan, 5}, 50); math.IsNaN(got) {
		t.Fatal("NaN leaked through Percentile")
	}
}

// TestHistogramEdgeCases covers the ASCII histogram's degenerate
// construction parameters and NaN rejection: a NaN sample must not
// count, not land in a bucket, and above all not panic via the int
// conversion in bucket placement.
func TestHistogramEdgeCases(t *testing.T) {
	// Degenerate range and bucket count collapse to one usable bin.
	h := NewHistogram(5, 5, 0)
	if len(h.Counts) != 1 || h.Hi <= h.Lo {
		t.Fatalf("degenerate histogram = %+v", h)
	}
	h.Add(5.5) // inside the repaired [5, 6) range
	if h.Counts[0] != 1 {
		t.Fatalf("counts = %v, want the sample in the single bin", h.Counts)
	}

	h = NewHistogram(0, 10, 4)
	h.Add(math.NaN())
	if h.Samples != 0 || h.Under != 0 || h.Over != 0 {
		t.Fatalf("NaN was counted: %+v", h)
	}
	h.Add(-1)
	h.Add(10)
	h.Add(2.5)
	if h.Under != 1 || h.Over != 1 || h.Samples != 3 || h.Counts[1] != 1 {
		t.Fatalf("boundary accounting wrong: %+v", h)
	}
	// Formatting a histogram that saw only out-of-range samples must not
	// divide by a zero max.
	if out := NewHistogram(0, 1, 2).Format(10); out == "" || strings.Contains(out, "#") {
		t.Fatalf("empty histogram format = %q", out)
	}
}
