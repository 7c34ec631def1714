package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/obs"
)

// maxRequestBody bounds a submission body (a DUT source plus knobs fits
// comfortably; anything larger is abuse).
const maxRequestBody = 4 << 20

// Server is the HTTP front-end over a Runner: the verification-as-a-
// service API of cmd/uvllmd.
//
//	POST   /v1/jobs            submit a design or repair job (202, 400, 429, 503)
//	GET    /v1/jobs/{id}       job status + terminal result
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/events  SSE stream of progress events
//	GET    /v1/modules         benchmark module catalog
//	GET    /v1/metrics         queue/latency/cache snapshot (JSON)
//	GET    /metrics            the same registry in Prometheus text format
//	GET    /healthz            liveness + drain state
//
// Every handler is instrumented: request latencies and error counts
// aggregate per endpoint pattern in the obs registry and surface as
// percentiles on /v1/metrics and as histograms on /metrics.
type Server struct {
	runner *Runner
	mux    *http.ServeMux

	epMu sync.Mutex
	eps  map[string]*endpointHandles
}

// endpointHandles are one route's registry handles, created at
// registration so the request path only observes.
type endpointHandles struct {
	lat  *obs.Histogram
	errs *obs.Counter
}

// NewServer builds the HTTP layer over a fresh Runner.
func NewServer(cfg RunnerConfig) *Server {
	s := &Server{
		runner: NewRunner(cfg),
		mux:    http.NewServeMux(),
		eps:    map[string]*endpointHandles{},
	}
	s.handle("POST /v1/jobs", s.submit)
	s.handle("GET /v1/jobs/{id}", s.status)
	s.handle("DELETE /v1/jobs/{id}", s.cancel)
	s.handle("GET /v1/jobs/{id}/events", s.events)
	s.handle("GET /v1/modules", s.modules)
	s.handle("GET /v1/metrics", s.metrics)
	s.handle("GET /metrics", s.prometheus)
	s.handle("GET /healthz", s.health)
	return s
}

// Runner returns the job runner behind the server.
func (s *Server) Runner() *Runner { return s.runner }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully winds the server down: new submissions get 503,
// queued jobs move to the drained state, in-flight jobs finish (bounded
// by ctx). Status and stream endpoints keep serving so clients can
// observe their jobs' fate.
func (s *Server) Drain(ctx context.Context) error {
	return s.runner.Drain(ctx)
}

// handle wraps a handler with the per-endpoint latency instrumentation:
// one registry histogram and error counter per route, created here so
// the request path only observes.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	reg := s.runner.Services().Obs
	ep := &endpointHandles{
		lat:  reg.Histogram("http_request_seconds", "request latency by endpoint", stageBuckets, obs.L("endpoint", pattern)),
		errs: reg.Counter("http_request_errors_total", "responses with status >= 400 by endpoint", obs.L("endpoint", pattern)),
	}
	s.epMu.Lock()
	s.eps[pattern] = ep
	s.epMu.Unlock()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r)
		ep.lat.Observe(time.Since(start).Seconds())
		if cw.code >= 400 {
			ep.errs.Inc()
		}
	})
}

// endpointSnapshot renders the per-endpoint section of /v1/metrics from
// the registry handles, omitting endpoints that have served nothing —
// the same shape the bespoke recorder produced.
func (s *Server) endpointSnapshot() map[string]EndpointStats {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	out := map[string]EndpointStats{}
	for pattern, ep := range s.eps {
		n := int64(ep.lat.Count())
		if n == 0 {
			continue
		}
		out[pattern] = EndpointStats{
			Latency: summarize(n, ep.lat.Samples()),
			Errors:  ep.errs.Value(),
		}
	}
	return out
}

// codeWriter captures the response status for instrumentation.
type codeWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying flusher so SSE streaming works
// through the instrumentation wrapper.
func (w *codeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// JobView is the status-endpoint rendering of one job.
type JobView struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// Tenant is the fair-scheduling label.
	Tenant string `json:"tenant,omitempty"`
	// Status is the lifecycle state.
	Status Status `json:"status"`
	// QueueWaitMS is how long the job waited for a worker (set once
	// running).
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// RunMS is the job's execution wall time (set once terminal).
	RunMS float64 `json:"run_ms,omitempty"`
	// Result is the terminal outcome (set once terminal, except for
	// drained jobs, which never ran).
	Result *Result `json:"result,omitempty"`
}

func viewOf(j *Job) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, Tenant: j.Spec.Tenant, Status: j.status,
		QueueWaitMS: float64(j.waited) / float64(time.Millisecond),
		RunMS:       float64(j.ranFor) / float64(time.Millisecond),
	}
	if j.result != nil {
		res := *j.result
		v.Result = &res
	}
	return v
}

// submitResponse is the 202 body of POST /v1/jobs.
type submitResponse struct {
	// ID is the assigned job identifier.
	ID string `json:"id"`
	// Status is the initial lifecycle state (queued).
	Status Status `json:"status"`
	// QueueDepth is the queue depth after this submission.
	QueueDepth int `json:"queue_depth"`
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "read body: " + err.Error()})
		return
	}
	if len(body) > maxRequestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decode spec: " + err.Error()})
		return
	}
	j, err := s.runner.Submit(spec)
	switch {
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case err == ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: j.ID, Status: j.Status(), QueueDepth: s.runner.QueueDepth(),
	})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runner.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

// cancel handles DELETE /v1/jobs/{id}: cancellation of a queued or
// running job. 202 with the job view on acceptance (idempotent —
// cancelling an already-terminal job just returns its state), 404 for
// unknown IDs.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runner.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(j))
}

// events streams a job's progress as Server-Sent Events: one
// `data: <json Event>` frame per event from the beginning of the job's
// history, closing after the terminal event. Reconnecting clients replay
// the full (small) history; Event.Seq makes deduplication trivial.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runner.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	seq := 0
	for {
		lines, more, terminal := j.encodedSince(seq)
		if len(lines) > 0 {
			for rest := lines; len(rest) > 0; seq++ {
				var data []byte
				data, rest, _ = bytes.Cut(rest, []byte("\n"))
				// The frame is the stored encoding; only the kind is read
				// back out of it.
				var ev struct {
					Kind string `json:"kind"`
				}
				json.Unmarshal(data, &ev)
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
			}
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// moduleView is one catalog row of GET /v1/modules.
type moduleView struct {
	// Name is the benchmark module name (JobSpec.Module).
	Name string `json:"name"`
	// Category is the paper Table II group.
	Category string `json:"category"`
	// Complexity is the 1..5 difficulty grade.
	Complexity int `json:"complexity"`
	// Clock is the clock input name ("" for combinational).
	Clock string `json:"clock,omitempty"`
	// IsFSM marks state machines.
	IsFSM bool `json:"is_fsm,omitempty"`
}

func (s *Server) modules(w http.ResponseWriter, r *http.Request) {
	var out []moduleView
	for _, m := range dataset.All() {
		out = append(out, moduleView{
			Name: m.Name, Category: string(m.Category),
			Complexity: m.Complexity, Clock: m.Clock, IsFSM: m.IsFSM,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	tenants, byStatus, running := s.runner.Snapshot()
	stages := map[string]LatencySummary{}
	for name, secs := range s.runner.StageStats() {
		stages[name] = summarize(s.runner.stageCount(name), secs)
	}
	cs := s.runner.Services().Cache.Stats()
	ms := s.runner.Services().Memo.Stats()
	writeJSON(w, http.StatusOK, MetricsSnapshot{
		Workers:      s.runner.Workers(),
		QueueDepth:   s.runner.QueueDepth(),
		QueueLimit:   s.runner.cfg.QueueLimit,
		Running:      running,
		Draining:     s.runner.Draining(),
		TenantQueues: tenants,
		JobsByStatus: byStatus,
		Endpoints:    s.endpointSnapshot(),
		Stages:       stages,
		Caches: CacheMetrics{
			Compile:          cs,
			CompileHitRate:   hitRatePct(cs.Hits, cs.Misses),
			TraceMemo:        ms,
			TraceMemoHitRate: hitRatePct(ms.Hits, ms.Misses),
		},
	})
}

// prometheus serves the whole obs registry in the Prometheus text
// exposition format — the scrape target for standard monitoring stacks,
// fed by the same registry as the JSON snapshot.
func (s *Server) prometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.runner.Services().Obs.WritePrometheus(w)
}

// healthBody is the GET /healthz response.
type healthBody struct {
	// Status is "ok" while serving and "draining" after Drain begins.
	Status string `json:"status"`
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	st := "ok"
	code := http.StatusOK
	if s.runner.Draining() {
		st = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthBody{Status: st})
}
