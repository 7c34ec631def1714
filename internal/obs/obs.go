// Package obs is the process-wide observability layer: a metrics
// registry (counters, gauges, bounded histograms, all with label
// support and Prometheus text exposition) and hierarchical tracing
// (obs.Span trees exportable as Chrome trace_event JSON, with one
// OnEnd hook per tracer that sees every finished span). It is
// built from the standard library only, like every subsystem in this
// repository, and it is designed to be provably free when disabled:
// every handle type (*Counter, *Gauge, *Histogram, *Tracer, *Span) is
// nil-safe, so instrumented hot paths pay one nil check when no
// registry or tracer is attached — a claim held by the
// BenchmarkSimCompiled / BenchmarkSimCompiledObs benchguard pair.
//
// The registry replaces the telemetry islands that grew per subsystem:
// sim.Cache counter snapshots, formal.Solver work stats, and the
// service layer's latency and per-span histograms all surface through
// one Registry. Both of uvllmd's metrics endpoints render its
// Snapshot: /v1/metrics as JSON (byte-compatible with the pre-obs
// shape, percentiles from each histogram's sample window) and /metrics
// as Prometheus text.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric or span annotation: a key/value pair. Metric
// series are identified by (name, ordered label set).
type Label struct {
	// Key is the label name.
	Key string
	// Value is the label value.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is not
// usable — obtain handles from a Registry. A nil *Counter is a valid
// no-op handle: Add and Inc return immediately, which is the
// zero-overhead fast path instrumented hot loops rely on.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored — counters only go up). Safe
// on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid
// no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded distribution metric: fixed cumulative bucket
// counts for Prometheus exposition plus a bounded ring of recent raw
// samples for percentile computation (Snapshot carries the ring, and
// the service layer's p50/p95/p99 digests read it there, so /v1/metrics
// keeps its exact-percentile semantics instead of bucket
// interpolation). NaN observations are rejected. A nil *Histogram is a
// valid no-op handle.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []uint64  // len(bounds)+1, non-cumulative per bucket
	sum    float64
	count  uint64

	samples []float64 // bounded ring of recent observations
	next    int       // ring cursor
	window  int       // ring capacity
}

// DefaultSampleWindow bounds the per-histogram raw-sample ring used for
// percentile digests; beyond it the oldest samples are overwritten, so
// percentiles reflect recent load.
const DefaultSampleWindow = 4096

// Observe records one sample. NaN is rejected (not counted anywhere).
// Safe on a nil receiver (no-op).
func (h *Histogram) Observe(x float64) {
	if h == nil || math.IsNaN(x) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x: le-bucket convention
	h.counts[i]++
	h.sum += x
	h.count++
	if len(h.samples) < h.window {
		h.samples = append(h.samples, x)
	} else {
		h.samples[h.next] = x
		h.next = (h.next + 1) % h.window
	}
	h.mu.Unlock()
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot fills ss's histogram fields under the lock.
func (h *Histogram) snapshot(ss *SeriesSnapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	ss.Bounds, ss.Cumulative = append([]float64(nil), h.bounds...), cum
	ss.Sum, ss.Count = h.sum, h.count
	ss.Samples = append([]float64(nil), h.samples...)
}

// ExpBuckets returns n exponentially spaced histogram bounds starting at
// start and multiplying by factor: the conventional shape for latency
// and solver-work distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{1}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates the registry's family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family is one registered metric name: its kind, help text and series
// keyed by rendered label set.
type family struct {
	kind   metricKind
	help   string
	bounds []float64 // histogram families only
	series map[string]*series
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// Registry is a process-wide metric registry. Handles are created once
// (Counter/Gauge/Histogram return the same handle for the same name and
// label set) and incremented lock-free on hot paths; Snapshot and
// WritePrometheus render a deterministic view. A nil *Registry is the
// disabled fast path: every handle constructor returns nil, and nil
// handles no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// seriesKey renders an ordered label set into a map key.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

// sortLabels returns a copy of labels sorted by key (metric identity is
// order-independent).
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns (creating if needed) the series for (name, labels),
// checking kind consistency. Called with r.mu held by the public
// constructors.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{kind: kind, help: help, bounds: bounds, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := seriesKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: labels}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			b := f.bounds
			s.h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1), window: DefaultSampleWindow}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter handle for (name, labels), registering it
// on first use. The same arguments always return the same handle. Nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge handle for (name, labels), registering it on
// first use. Nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// GaugeFunc registers a gauge series whose value is pulled from fn at
// snapshot/exposition time — the adapter for subsystems that already
// keep consistent counters behind their own locks (sim.Cache.Stats,
// uvm.TraceMemo.Stats, the runner's queue depths): the registry never
// duplicates their state, it reads the documented snapshot at scrape.
// Re-registering the same (name, labels) replaces the function. No-op
// on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	labels = sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindGaugeFunc, nil, labels).fn = fn
}

// Histogram returns the histogram handle for (name, labels) with the
// given bucket upper bounds (ascending; a +Inf bucket is implicit),
// registering it on first use. Bounds are fixed by the first
// registration of the name. Nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// SeriesSnapshot is one series of a metric in a Snapshot.
type SeriesSnapshot struct {
	// Labels is the ordered label set identifying the series.
	Labels []Label
	// Value is the counter or gauge value (counters as float64).
	Value float64
	// Bounds are the histogram bucket upper bounds (histograms only).
	Bounds []float64
	// Cumulative are the cumulative bucket counts aligned with Bounds
	// plus a final +Inf entry (histograms only).
	Cumulative []uint64
	// Sum is the histogram sample sum.
	Sum float64
	// Count is the histogram observation count.
	Count uint64
	// Samples is the histogram's bounded window of recent observations
	// (at most DefaultSampleWindow), in no particular order: percentile
	// digests are computed from it.
	Samples []float64
}

// MetricSnapshot is one metric family in a Snapshot.
type MetricSnapshot struct {
	// Name is the metric name.
	Name string
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Help is the registration help text.
	Help string
	// Series are the family's series, sorted by label set.
	Series []SeriesSnapshot
}

// Snapshot returns a deterministic point-in-time view of every
// registered metric: families sorted by name, series sorted by label
// set, gauge functions evaluated at call time. Tests compare snapshots
// directly. Nil registry returns nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type seriesRef struct {
		key string
		s   *series
	}
	fams := make(map[string]*family, len(r.families))
	refs := make(map[string][]seriesRef, len(r.families))
	for n, f := range r.families {
		fams[n] = f
		for k, s := range f.series {
			refs[n] = append(refs[n], seriesRef{key: k, s: s})
		}
		sort.Slice(refs[n], func(i, j int) bool { return refs[n][i].key < refs[n][j].key })
	}
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(names))
	for _, n := range names {
		f := fams[n]
		ms := MetricSnapshot{Name: n, Kind: f.kind.String(), Help: f.help}
		for _, ref := range refs[n] {
			ss := SeriesSnapshot{Labels: ref.s.labels}
			switch f.kind {
			case kindCounter:
				ss.Value = float64(ref.s.c.Value())
			case kindGauge:
				ss.Value = ref.s.g.Value()
			case kindGaugeFunc:
				if ref.s.fn != nil {
					ss.Value = ref.s.fn()
				}
			case kindHistogram:
				ref.s.h.snapshot(&ss)
			}
			ms.Series = append(ms.Series, ss)
		}
		out = append(out, ms)
	}
	return out
}
