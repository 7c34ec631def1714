package service

import (
	"uvllm/internal/memo"
	"uvllm/internal/metrics"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
)

// LatencySummary is the percentile digest of one latency series, in
// milliseconds, computed with metrics.Percentile over the histogram's
// sample window at snapshot time.
type LatencySummary struct {
	// Count is the number of samples observed.
	Count int64 `json:"count"`
	// P50 is the median latency in milliseconds.
	P50 float64 `json:"p50_ms"`
	// P95 is the 95th-percentile latency in milliseconds.
	P95 float64 `json:"p95_ms"`
	// P99 is the 99th-percentile latency in milliseconds.
	P99 float64 `json:"p99_ms"`
}

func summarize(h obs.SeriesSnapshot) LatencySummary {
	ms := make([]float64, len(h.Samples))
	for i, s := range h.Samples {
		ms[i] = s * 1000
	}
	return LatencySummary{
		Count: int64(h.Count),
		P50:   metrics.Percentile(ms, 50),
		P95:   metrics.Percentile(ms, 95),
		P99:   metrics.Percentile(ms, 99),
	}
}

// EndpointStats is one endpoint's request accounting.
type EndpointStats struct {
	// Latency digests the endpoint's request latencies.
	Latency LatencySummary `json:"latency"`
	// Errors counts responses with status >= 400.
	Errors int64 `json:"errors"`
}

// CacheMetrics is the cache section of the metrics snapshot: counter
// copies taken through the Stats() snapshot methods (never raw field
// reads) plus derived hit rates.
type CacheMetrics struct {
	// Compile is the sim.Cache snapshot.
	Compile sim.CacheStats `json:"compile"`
	// CompileHitRate is hits/(hits+misses) of the compile cache, percent.
	CompileHitRate float64 `json:"compile_hit_rate"`
	// TraceMemo is the golden-trace memo snapshot.
	TraceMemo memo.Stats `json:"trace_memo"`
	// TraceMemoHitRate is hits/(hits+misses) of the trace memo, percent.
	TraceMemoHitRate float64 `json:"trace_memo_hit_rate"`
}

// MetricsSnapshot is the full scrape of /v1/metrics: queue and worker
// state, per-endpoint and per-stage latency percentiles, and cache
// counters.
type MetricsSnapshot struct {
	// Workers is the worker pool size.
	Workers int `json:"workers"`
	// QueueDepth is the total queued (not running) job count.
	QueueDepth int `json:"queue_depth"`
	// QueueLimit is the backpressure bound.
	QueueLimit int `json:"queue_limit"`
	// Running is the in-flight job count.
	Running int `json:"running"`
	// Draining reports whether the server is refusing new work.
	Draining bool `json:"draining"`
	// TenantQueues is the per-tenant queued-job depth.
	TenantQueues map[string]int `json:"tenant_queues,omitempty"`
	// JobsByStatus counts every known job by lifecycle state.
	JobsByStatus map[Status]int `json:"jobs_by_status"`
	// Endpoints digests request latency per endpoint pattern.
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
	// Stages digests job queue-wait and run latencies.
	Stages map[string]LatencySummary `json:"stages,omitempty"`
	// Caches is the compile-cache and trace-memo counter section.
	Caches CacheMetrics `json:"caches"`
}

func hitRatePct(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
