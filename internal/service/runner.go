package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"uvllm/internal/obs"
)

// Status is a job's lifecycle state. Terminal states are StatusDone,
// StatusFailed, StatusCancelled and StatusDrained.
type Status string

// Job lifecycle states.
const (
	// StatusQueued means the job is waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning means a worker is executing the job.
	StatusRunning Status = "running"
	// StatusDone means the job finished with a passing verdict.
	StatusDone Status = "done"
	// StatusFailed means the job finished with a failing verdict or
	// could not run.
	StatusFailed Status = "failed"
	// StatusCancelled means the client cancelled the job: a queued job
	// never ran, a running job stopped at the next iteration boundary.
	StatusCancelled Status = "cancelled"
	// StatusDrained means the job was still queued when the runner
	// drained; it never ran.
	StatusDrained Status = "drained"
)

// Terminal reports whether the status is a terminal state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled || s == StatusDrained
}

// Event is one progress record on a job's stream: the queue transitions,
// core.Verify's per-iteration verdicts, the formal outcome and the
// terminal state. Seq is assigned per job, densely from 0, so a stream
// consumer can resume from any offset.
type Event struct {
	// Seq is the dense per-job sequence number.
	Seq int `json:"seq"`
	// Kind discriminates the event payload.
	Kind string `json:"kind"`
	// Iteration is the repair iteration for iteration events (0 =
	// pre-processing).
	Iteration int `json:"iteration,omitempty"`
	// Stage is the active pipeline segment.
	Stage string `json:"stage,omitempty"`
	// Score is the scoreboard pass rate of this iteration (0..1).
	Score float64 `json:"score,omitempty"`
	// Best is the best pass rate seen so far.
	Best float64 `json:"best,omitempty"`
	// Coverage is the port-level coverage percent of this iteration.
	Coverage float64 `json:"coverage,omitempty"`
	// StructCoverage is the structural coverage percent of this
	// iteration (when the cover knob is on).
	StructCoverage float64 `json:"struct_coverage,omitempty"`
	// Rollback marks an iteration whose candidate was rejected by the
	// score register.
	Rollback bool `json:"rollback,omitempty"`
	// Formal is the proof outcome on formal events.
	Formal string `json:"formal,omitempty"`
	// Status is the job status on terminal and transition events.
	Status Status `json:"status,omitempty"`
	// Message is free-form human-readable detail.
	Message string `json:"message,omitempty"`
	// Span is the finished trace span on span events (jobs submitted
	// with the trace option stream every span as it closes).
	Span *obs.SpanInfo `json:"span,omitempty"`
}

// Event kinds.
const (
	// EventQueued is emitted at submission.
	EventQueued = "queued"
	// EventStarted is emitted when a worker picks the job up.
	EventStarted = "started"
	// EventIteration carries one core.Progress record.
	EventIteration = "iteration"
	// EventFormal carries the bounded-proof outcome.
	EventFormal = "formal"
	// EventSpan carries one finished trace span (trace-enabled jobs).
	EventSpan = "span"
	// EventPanic carries a contained panic's value and stack; the job
	// then ends failed with an internal error.
	EventPanic = "panic"
	// EventTerminal closes the stream with the final status.
	EventTerminal = "terminal"
)

// Job is one submitted verification job and its event history. All
// methods are safe for concurrent use.
type Job struct {
	// ID is the runner-assigned job identifier.
	ID string
	// Spec is the submitted job spec (post default-merging).
	Spec JobSpec

	mu       sync.Mutex
	status   Status
	events   []Event
	notify   chan struct{} // closed and replaced on every append
	result   *Result
	queuedAt time.Time
	doneAt   time.Time // terminal-transition instant; zero while live
	ranFor   time.Duration
	waited   time.Duration

	ctx    context.Context // cancelled by Runner.Cancel; threaded into Execute
	cancel context.CancelFunc
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID: id, Spec: spec, status: StatusQueued, notify: make(chan struct{}),
		queuedAt: now, ctx: ctx, cancel: cancel,
	}
	j.append(Event{Kind: EventQueued, Status: StatusQueued})
	return j
}

// append records one event, stamping Seq and waking stream readers.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the terminal result, ok=false while the job is live.
func (j *Job) Result() (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return Result{}, false
	}
	return *j.result, true
}

// EventsSince returns a copy of the events from seq onward, plus a
// channel that is closed when more events arrive and whether the job has
// reached a terminal state. The triple lets a streamer loop without
// missing or duplicating events.
func (j *Job) EventsSince(seq int) (evs []Event, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.notify, j.status.Terminal()
}

// WaitTerminal blocks until the job reaches a terminal state or the
// context is cancelled, returning the final status.
func (j *Job) WaitTerminal(ctx context.Context) (Status, error) {
	seq := 0
	for {
		evs, more, terminal := j.EventsSince(seq)
		seq += len(evs)
		if terminal {
			return j.Status(), nil
		}
		select {
		case <-more:
		case <-ctx.Done():
			return j.Status(), ctx.Err()
		}
	}
}

// setStatus transitions the lifecycle state; it refuses to leave a
// terminal state (a job cancelled while queued stays cancelled even if
// a worker pops it concurrently) and reports whether the transition
// happened.
func (j *Job) setStatus(s Status) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.status = s
	return true
}

// finish moves the job to a terminal state at the given instant and
// emits the closing event. It is idempotent: once terminal, later
// finish calls (a cancel racing a drain, a worker finishing a job
// cancelled while queued) are no-ops, and it reports whether this call
// performed the transition.
func (j *Job) finish(s Status, res *Result, msg string, at time.Time) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = s
	j.result = res
	j.doneAt = at
	j.mu.Unlock()
	j.append(Event{Kind: EventTerminal, Status: s, Message: msg})
	return true
}

// cancelIfQueued atomically finishes the job in the cancelled state if
// no worker has picked it up yet, reporting whether it did. A running
// job is left alone: its cancelled context stops Execute at the next
// iteration boundary and the worker lands the terminal transition (with
// the partial result).
func (j *Job) cancelIfQueued(at time.Time) bool {
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return false
	}
	j.status = StatusCancelled
	j.doneAt = at
	j.mu.Unlock()
	j.append(Event{Kind: EventTerminal, Status: StatusCancelled, Message: "cancelled by client before the job ran"})
	return true
}

// doneSince returns the terminal instant, ok=false while the job is live.
func (j *Job) doneSince() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneAt, j.status.Terminal() && !j.doneAt.IsZero()
}

// Submission and drain errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity; the HTTP layer maps it to 429 with Retry-After.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining is returned by Submit once Drain has begun; the HTTP
	// layer maps it to 503.
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// RunnerConfig sizes a Runner.
type RunnerConfig struct {
	// Workers is the worker pool size (0 = NumCPU).
	Workers int
	// QueueLimit bounds the total queued (not yet running) jobs across
	// all tenants (0 = DefaultQueueLimit).
	QueueLimit int
	// Services is the simulation state jobs run against; the zero value
	// resolves to DefaultServices.
	Services Services
	// Defaults are server-level option defaults merged into every
	// submitted spec (zero-valued knobs inherit, booleans or-combine).
	Defaults Options
	// ResultTTL bounds how long a terminal job (and its result and event
	// history) stays addressable after finishing; expired jobs are
	// garbage-collected opportunistically on submissions and lookups, so
	// a lookup past the TTL reports not-found (HTTP 404). 0 keeps
	// terminal jobs forever — the pre-TTL behavior.
	ResultTTL time.Duration
	// SlowSpan, when > 0, samples slow trace spans: every job is traced
	// and each span lasting at least this long is reported through
	// OnSlowSpan. 0 traces only jobs that opt in with Options.Trace.
	SlowSpan time.Duration
	// OnSlowSpan receives the sampled slow spans (nil discards them);
	// cmd/uvllmd points it at the process log.
	OnSlowSpan func(jobID string, sp obs.SpanInfo)
}

// DefaultQueueLimit bounds the queue when RunnerConfig.QueueLimit is 0.
const DefaultQueueLimit = 256

// Runner is the bounded worker pool over core.Verify behind the server:
// submissions enter per-tenant FIFO queues scheduled round-robin (one
// tenant flooding the queue cannot starve another), a fixed worker pool
// executes jobs through the shared Execute path, and Drain stops intake,
// fails over queued jobs to the drained state and waits for in-flight
// jobs to finish.
type Runner struct {
	cfg  RunnerConfig
	svc  Services
	exec func(context.Context, JobSpec, Services, func(Event)) Result // test seam; ExecuteCtx by default
	now  func() time.Time                                             // test seam; time.Now by default

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*Job // per-tenant FIFO
	ring     []string          // round-robin tenant order
	next     int               // ring cursor
	queued   int
	running  int
	draining bool
	seq      int
	jobs     map[string]*Job
	wg       sync.WaitGroup

	stageWait     *obs.Histogram // queue_wait stage latencies
	stageRun      *obs.Histogram // run stage latencies
	jobsTotal     *obs.Counter
	jobsCancelled *obs.Counter
	jobsPanicked  *obs.Counter
}

// stageBuckets bounds the stage/endpoint latency histograms: 1 ms to
// ~65 s, doubling.
var stageBuckets = obs.ExpBuckets(0.001, 2, 17)

// NewRunner starts the worker pool and returns the runner.
func NewRunner(cfg RunnerConfig) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	svc := cfg.Services
	if svc.Cache == nil || svc.Memo == nil {
		def := DefaultServices()
		if svc.Cache == nil {
			svc.Cache = def.Cache
		}
		if svc.Memo == nil {
			svc.Memo = def.Memo
		}
	}
	if svc.Obs == nil {
		// The runner always observes: the registry feeds /v1/metrics and
		// /metrics. Callers share a process-wide registry by setting
		// Services.Obs.
		svc.Obs = obs.NewRegistry()
	}
	reg := svc.Obs
	r := &Runner{
		cfg: cfg, svc: svc, exec: ExecuteCtx, now: time.Now,
		queues:        map[string][]*Job{},
		jobs:          map[string]*Job{},
		stageWait:     reg.Histogram("stage_seconds", "job stage latency in seconds", stageBuckets, obs.L("stage", "queue_wait")),
		stageRun:      reg.Histogram("stage_seconds", "job stage latency in seconds", stageBuckets, obs.L("stage", "run")),
		jobsTotal:     reg.Counter("jobs_total", "jobs accepted by the runner"),
		jobsCancelled: reg.Counter("jobs_cancelled_total", "jobs cancelled by the client"),
		jobsPanicked:  reg.Counter("jobs_panicked_total", "jobs whose execution panicked (contained: the job fails, the worker keeps serving)"),
	}
	r.registerGauges(reg)
	r.cond = sync.NewCond(&r.mu)
	for w := 0; w < cfg.Workers; w++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// registerGauges wires the runner's queue/worker state and the shared
// caches' counters into the registry as snapshot-time gauge functions —
// the registry never duplicates state the subsystems already keep
// behind their own locks.
func (r *Runner) registerGauges(reg *obs.Registry) {
	reg.Gauge("workers", "worker pool size").Set(float64(r.cfg.Workers))
	reg.GaugeFunc("queue_depth", "queued (not running) jobs", func() float64 { return float64(r.QueueDepth()) })
	reg.GaugeFunc("jobs_running", "in-flight jobs", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.running)
	})
	cache, memo := r.svc.Cache, r.svc.Memo
	reg.GaugeFunc("cache_hits", "cache hits", func() float64 { return float64(cache.Stats().Hits) }, obs.L("cache", "compile"))
	reg.GaugeFunc("cache_misses", "cache misses", func() float64 { return float64(cache.Stats().Misses) }, obs.L("cache", "compile"))
	reg.GaugeFunc("cache_hits", "cache hits", func() float64 { return float64(cache.Stats().Disk.Hits) }, obs.L("cache", "disk"))
	reg.GaugeFunc("cache_misses", "cache misses", func() float64 { return float64(cache.Stats().Disk.Misses) }, obs.L("cache", "disk"))
	reg.GaugeFunc("cache_writes", "disk cache entries written", func() float64 { return float64(cache.Stats().Disk.Writes) }, obs.L("cache", "disk"))
	reg.GaugeFunc("cache_evictions", "disk cache evictions", func() float64 { return float64(cache.Stats().Disk.Evictions) }, obs.L("cache", "disk"))
	reg.GaugeFunc("cache_hits", "cache hits", func() float64 { return float64(memo.Stats().Hits) }, obs.L("cache", "trace_memo"))
	reg.GaugeFunc("cache_misses", "cache misses", func() float64 { return float64(memo.Stats().Misses) }, obs.L("cache", "trace_memo"))
}

// Workers returns the worker pool size.
func (r *Runner) Workers() int { return r.cfg.Workers }

// Services returns the simulation state jobs run against.
func (r *Runner) Services() Services { return r.svc }

// Submit validates, defaults and enqueues one job. It returns
// ErrDraining after Drain has begun and ErrQueueFull when the bounded
// queue is at capacity; both leave no trace in the job table.
func (r *Runner) Submit(spec JobSpec) (*Job, error) {
	spec.Options = spec.Options.merge(r.cfg.Defaults)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcLocked()
	if r.draining {
		return nil, ErrDraining
	}
	if r.queued >= r.cfg.QueueLimit {
		return nil, ErrQueueFull
	}
	r.seq++
	j := newJob(fmt.Sprintf("job-%d", r.seq), spec, r.now())
	tenant := spec.Tenant
	if _, ok := r.queues[tenant]; !ok {
		r.ring = append(r.ring, tenant)
	}
	r.queues[tenant] = append(r.queues[tenant], j)
	r.queued++
	r.jobs[j.ID] = j
	r.jobsTotal.Inc()
	r.cond.Signal()
	return j, nil
}

// Cancel requests cancellation of a job by ID. A queued job moves to
// the cancelled terminal state immediately and never runs; a running
// job has its context cancelled, so Execute stops at the next
// iteration (or formal depth) boundary and the worker lands it in the
// cancelled state. Cancelling a terminal job is a no-op. ok is false
// for unknown (or TTL-expired) IDs.
func (r *Runner) Cancel(id string) (j *Job, ok bool) {
	j, ok = r.Job(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	if j.cancelIfQueued(r.now()) {
		// The job was still queued: it is terminal now and the worker that
		// eventually pops it will skip it.
		r.jobsCancelled.Inc()
		r.countTerminal(StatusCancelled)
	}
	return j, true
}

// countTerminal records one terminal transition in the registry.
func (r *Runner) countTerminal(s Status) {
	r.svc.Obs.Counter("jobs_by_status_total", "terminal jobs by status", obs.L("status", string(s))).Inc()
}

// Job looks a job up by ID. Terminal jobs past the configured ResultTTL
// are gone: the lookup reports not-found exactly like an unknown ID.
func (r *Runner) Job(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcLocked()
	j, ok := r.jobs[id]
	return j, ok
}

// gcLocked removes terminal jobs whose ResultTTL has elapsed. Called with
// mu held; a no-op when no TTL is configured.
func (r *Runner) gcLocked() {
	ttl := r.cfg.ResultTTL
	if ttl <= 0 {
		return
	}
	now := r.now()
	for id, j := range r.jobs {
		if at, ok := j.doneSince(); ok && now.Sub(at) >= ttl {
			delete(r.jobs, id)
		}
	}
}

// QueueDepth returns the number of queued (not running) jobs.
func (r *Runner) QueueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queued
}

// Draining reports whether Drain has begun.
func (r *Runner) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Snapshot returns per-tenant queue depths and job counts by status —
// the runner's contribution to the metrics endpoint.
func (r *Runner) Snapshot() (tenantDepth map[string]int, byStatus map[Status]int, running int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tenantDepth = map[string]int{}
	for t, q := range r.queues {
		if len(q) > 0 {
			tenantDepth[t] = len(q)
		}
	}
	byStatus = map[Status]int{}
	for _, j := range r.jobs {
		byStatus[j.Status()]++
	}
	return tenantDepth, byStatus, r.running
}

// popLocked removes and returns the next job under round-robin tenant
// order, or nil when the queue is empty. Called with mu held.
func (r *Runner) popLocked() *Job {
	for range r.ring {
		if len(r.ring) == 0 {
			return nil
		}
		r.next %= len(r.ring)
		tenant := r.ring[r.next]
		q := r.queues[tenant]
		if len(q) == 0 {
			// Tenant went idle: drop it from the ring (it re-registers on
			// its next submission) without advancing the cursor.
			delete(r.queues, tenant)
			r.ring = append(r.ring[:r.next], r.ring[r.next+1:]...)
			continue
		}
		j := q[0]
		r.queues[tenant] = q[1:]
		r.queued--
		r.next++
		return j
	}
	return nil
}

// worker is one pool goroutine: pop fair-scheduled jobs until drain.
func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for r.queued == 0 && !r.draining {
			r.cond.Wait()
		}
		if r.queued == 0 && r.draining {
			r.mu.Unlock()
			return
		}
		j := r.popLocked()
		r.running++
		r.mu.Unlock()
		if j != nil {
			r.run(j)
		}
		r.mu.Lock()
		r.running--
		r.mu.Unlock()
	}
}

// run executes one job end to end, recording queue-wait and run-time
// stage samples and tracing the job when the trace knob (or the
// slow-span sampler) is on.
func (r *Runner) run(j *Job) {
	start := r.now()
	wait := start.Sub(j.queuedAt)
	r.stageWait.Observe(wait.Seconds())
	j.mu.Lock()
	j.waited = wait
	j.mu.Unlock()

	if !j.setStatus(StatusRunning) {
		// Cancelled while queued: the job is already terminal, skip it.
		return
	}
	j.append(Event{Kind: EventStarted, Status: StatusRunning})

	ctx := j.ctx
	var root *obs.Span
	if j.Spec.Options.Trace || r.cfg.SlowSpan > 0 {
		tracer := obs.NewTracer(j.ID)
		tracer.SlowSpan = r.cfg.SlowSpan
		if r.cfg.OnSlowSpan != nil {
			tracer.OnSlow = func(sp obs.SpanInfo) { r.cfg.OnSlowSpan(j.ID, sp) }
		}
		if j.Spec.Options.Trace {
			tracer.OnEnd = func(sp obs.SpanInfo) {
				s := sp
				j.append(Event{Kind: EventSpan, Span: &s})
			}
		}
		root = tracer.Start("job")
		ctx = obs.ContextWith(ctx, root)
	}
	res := r.execute(ctx, j, root)
	root.End()
	ran := r.now().Sub(start)
	r.stageRun.Observe(ran.Seconds())
	j.mu.Lock()
	j.ranFor = ran
	j.mu.Unlock()

	status, msg := StatusDone, "verification passed"
	switch {
	case res.Cancelled:
		status = StatusCancelled
		msg = "cancelled by client mid-run"
		r.jobsCancelled.Inc()
	case res.Failed():
		status = StatusFailed
		switch {
		case res.Error != "":
			msg = res.Error
		case res.Formal == "refuted":
			msg = "formal refutation: " + res.FormalDetail
		default:
			msg = fmt.Sprintf("verification failed (best pass rate %.2f)", res.PassRate)
		}
	}
	if j.finish(status, &res, msg, r.now()) {
		r.countTerminal(status)
	}
}

// execute runs the job's pipeline and contains a panic in it. User
// source reaches lint, compile, sim, blast and SAT, and a panic in any of
// them fails this job with an internal error instead of unwinding the
// worker and killing the server with every in-flight job. The stack goes
// onto the job's root span (when traced) and into its event history.
func (r *Runner) execute(ctx context.Context, j *Job, root *obs.Span) (res Result) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		r.jobsPanicked.Inc()
		stack := string(debug.Stack())
		root.SetArg("panic", fmt.Sprint(p))
		root.SetArg("stack", stack)
		j.append(Event{Kind: EventPanic, Message: fmt.Sprintf("panic: %v\n%s", p, stack)})
		res = Result{Error: fmt.Sprintf("internal error: %v", p)}
	}()
	return r.exec(ctx, j.Spec, r.svc, j.append)
}

// Drain stops intake, terminates every still-queued job with the drained
// status, and waits (bounded by ctx) for in-flight jobs and the worker
// pool to finish. Safe to call more than once.
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	if !r.draining {
		r.draining = true
		for {
			j := r.popLocked()
			if j == nil {
				break
			}
			if j.finish(StatusDrained, nil, "server drained before the job ran", r.now()) {
				r.countTerminal(StatusDrained)
			}
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()

	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StageStats returns the recorded per-stage latency samples (seconds),
// keyed by stage name ("queue_wait", "run"). The samples come from the
// registry histograms' bounded windows, so percentiles reflect recent
// load exactly as the pre-registry sampler did.
func (r *Runner) StageStats() map[string][]float64 {
	out := map[string][]float64{}
	for name, h := range map[string]*obs.Histogram{"queue_wait": r.stageWait, "run": r.stageRun} {
		if xs := h.Samples(); len(xs) > 0 {
			out[name] = xs
		}
	}
	return out
}

// stageCount returns the total observation count of a stage histogram.
func (r *Runner) stageCount(name string) int64 {
	switch name {
	case "queue_wait":
		return int64(r.stageWait.Count())
	case "run":
		return int64(r.stageRun.Count())
	}
	return 0
}
