package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentDeterminism hammers one counter and one
// labelled counter family from many goroutines and checks the final
// snapshot is exact — the registry's lock-free increments lose
// nothing (run under -race in CI).
func TestCounterConcurrentDeterminism(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("jobs_total", "jobs")
			lc := r.Counter("by_status", "per status", L("status", "done"))
			h := r.Histogram("lat", "latency", []float64{1, 10, 100})
			for i := 0; i < perG; i++ {
				c.Inc()
				lc.Add(2)
				h.Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("jobs_total", "jobs").Value(); got != goroutines*perG {
		t.Fatalf("jobs_total = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("by_status", "per status", L("status", "done")).Value(); got != 2*goroutines*perG {
		t.Fatalf("by_status = %d, want %d", got, 2*goroutines*perG)
	}
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestRegistrySameHandle checks the registry returns the identical
// handle for the same (name, label set) regardless of label order.
func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "h", L("x", "1"), L("y", "2"))
	b := r.Counter("c", "h", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("same series returned distinct handles")
	}
	if a == r.Counter("c", "h", L("x", "1"), L("y", "3")) {
		t.Fatal("distinct label values shared a handle")
	}
}

// TestNilSafety checks that every handle obtained from a nil registry
// (the disabled fast path) is usable without panicking.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "h")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter reported a value")
	}
	g := r.Gauge("g", "h")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge reported a value")
	}
	r.GaugeFunc("gf", "h", func() float64 { return 1 })
	h := r.Histogram("hi", "h", []float64{1})
	h.Observe(2)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded data")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBuckets checks le-bucket placement, NaN rejection, and
// the bounded sample window.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 2, 5, 7, 50, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6 (NaN must be rejected)", h.Count())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s := snap[0].Series[0]
	// le=1: {0.5, 1}; le=5: +{2, 5}; le=10: +{7}; +Inf: +{50}.
	want := []uint64{2, 4, 5, 6}
	if len(s.Cumulative) != len(want) {
		t.Fatalf("cumulative len = %d, want %d", len(s.Cumulative), len(want))
	}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if s.Sum != 0.5+1+2+5+7+50 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

// TestHistogramSampleWindow checks the raw-sample ring stays bounded
// and keeps recent observations, as a snapshot of it reads them.
func TestHistogramSampleWindow(t *testing.T) {
	h := &Histogram{bounds: []float64{1}, counts: make([]uint64, 2), window: 4}
	for i := 0; i < 10; i++ {
		h.Observe(float64(i))
	}
	var ss SeriesSnapshot
	h.snapshot(&ss)
	got := ss.Samples
	if ss.Count != 10 {
		t.Fatalf("count = %d, want 10 (the window bounds the samples, not the count)", ss.Count)
	}
	if len(got) != 4 {
		t.Fatalf("window len = %d, want 4", len(got))
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 6+7+8+9 {
		t.Fatalf("window kept %v, want the last four observations", got)
	}
}

// TestGaugeAndFunc checks gauge set/read and snapshot-time GaugeFunc
// evaluation.
func TestGaugeAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	v := 3.0
	r.GaugeFunc("hits", "cache hits", func() float64 { return v })
	snap := r.Snapshot()
	byName := map[string]float64{}
	for _, m := range snap {
		byName[m.Name] = m.Series[0].Value
	}
	if byName["depth"] != 7 || byName["hits"] != 3 {
		t.Fatalf("snapshot values: %v", byName)
	}
	v = 9
	snap = r.Snapshot()
	for _, m := range snap {
		if m.Name == "hits" && m.Series[0].Value != 9 {
			t.Fatalf("GaugeFunc not re-evaluated: %v", m.Series[0].Value)
		}
	}
}

// TestWritePrometheus checks the text exposition: headers, label
// rendering/escaping, histogram bucket/sum/count expansion, and
// determinism across calls.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "total jobs").Add(3)
	r.Counter("jobs_by_status_total", "jobs by status", L("status", `we"ird\`)).Inc()
	r.Gauge("queue_depth", "depth").Set(2.5)
	h := r.Histogram("solver_conflicts", "conflicts per call", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		`jobs_by_status_total{status="we\"ird\\"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 2.5",
		"# TYPE solver_conflicts histogram",
		`solver_conflicts_bucket{le="10"} 1`,
		`solver_conflicts_bucket{le="100"} 2`,
		`solver_conflicts_bucket{le="+Inf"} 3`,
		"solver_conflicts_sum 5055",
		"solver_conflicts_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition output not deterministic")
	}
}

// TestExpBuckets checks the exponential bucket helper.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if b := ExpBuckets(0, 2, 3); len(b) != 1 {
		t.Fatalf("degenerate ExpBuckets = %v", b)
	}
}

// TestCounterKindConflict checks that re-registering a name under a
// different kind panics loudly rather than corrupting the family.
func TestCounterKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("m", "h")
}
