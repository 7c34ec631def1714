package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"uvllm/internal/core"
	"uvllm/internal/faultgen"
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
// core.Verify's per-iteration verdicts (read off its trace spans), the
// formal outcome and the terminal state. Seq is assigned per job,
// densely from 0, so a stream consumer can resume from any offset.
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
	// EventIteration carries one repair-loop verdict: iteration 0 when
	// core.Verify's preprocess span ends, then one per iteration span.
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

	mu     sync.Mutex
	status Status
	// hist is the event history as the events' JSON encodings, each
	// followed by a newline (an encoding never contains one). It only
	// grows while the job is live, so a slice of it stays valid after
	// the lock is released, and it is copied to its exact length at the
	// terminal transition.
	hist     []byte
	nEvents  int
	notify   chan struct{} // closed and replaced on every append; closedNotify once terminal
	result   *Result
	queuedAt time.Time
	doneAt   time.Time // terminal-transition instant; zero while live
	ranFor   time.Duration
	waited   time.Duration

	// ctx is threaded into Execute and cancelled by Runner.Cancel. The
	// terminal transition cancels it and drops both fields: the work it
	// bounded is over.
	ctx    context.Context
	cancel context.CancelFunc
}

// closedNotify is every finished job's notify channel: no event follows
// the terminal one, so a reader never needs to wait.
var closedNotify = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

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
	j.appendLocked(ev)
	j.mu.Unlock()
}

func (j *Job) appendLocked(ev Event) {
	if j.status.Terminal() {
		return // the terminal event closes the history
	}
	j.record(ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// record stamps Seq and adds the event's encoding to the history. An
// Event always encodes: its only floats are ratios and percents with
// guarded denominators, and a span's start time is the wall clock.
func (j *Job) record(ev Event) {
	ev.Seq = j.nEvents
	enc, _ := json.Marshal(ev)
	j.hist = append(append(j.hist, enc...), '\n')
	j.nEvents++
}

// terminateLocked lands the terminal transition: it sets the status,
// records the closing event and trims what a finished job keeps for the
// rest of its life. The history is copied to its exact length (append
// leaves up to half of it spare); the context is cancelled, as the
// context package requires, and released with its cancel func; the
// notify channel is closed and replaced by the shared closedNotify.
// Called with mu held on a live job.
func (j *Job) terminateLocked(s Status, msg string, at time.Time) {
	j.status = s
	j.doneAt = at
	j.record(Event{Kind: EventTerminal, Status: s, Message: msg})
	j.hist = append(make([]byte, 0, len(j.hist)), j.hist...)
	close(j.notify)
	j.notify = closedNotify
	j.cancel()
	j.ctx, j.cancel = nil, nil
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

// encodedSince returns the JSON encodings of the events from seq onward,
// one per line, sharing the history's storage (read-only), plus the
// EventsSince wake-up channel and terminal flag.
func (j *Job) encodedSince(seq int) (lines []byte, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines = j.hist
	for ; seq > 0 && len(lines) > 0; seq-- {
		lines = lines[bytes.IndexByte(lines, '\n')+1:]
	}
	return lines, j.notify, j.status.Terminal()
}

// EventsSince returns the events from seq onward, decoded from the
// history, plus a channel that is closed when more events arrive and
// whether the job has reached a terminal state. The triple lets a
// streamer loop without missing or duplicating events.
func (j *Job) EventsSince(seq int) (evs []Event, more <-chan struct{}, terminal bool) {
	lines, more, terminal := j.encodedSince(seq)
	for len(lines) > 0 {
		var line []byte
		line, lines, _ = bytes.Cut(lines, []byte("\n"))
		var ev Event
		json.Unmarshal(line, &ev) // json.Marshal output: it decodes
		evs = append(evs, ev)
	}
	return evs, more, terminal
}

// WaitTerminal blocks until the job reaches a terminal state or the
// context is cancelled, returning the final status. It waits on the
// notify channel, which every event closes, the terminal one included.
func (j *Job) WaitTerminal(ctx context.Context) (Status, error) {
	for {
		j.mu.Lock()
		s, more := j.status, j.notify
		j.mu.Unlock()
		if s.Terminal() {
			return s, nil
		}
		select {
		case <-more:
		case <-ctx.Done():
			return j.Status(), ctx.Err()
		}
	}
}

// start moves a queued job to running, records its queue wait and the
// started event, and returns the context Execute runs under. ok is false
// when the job is already terminal (cancelled while queued, or drained):
// a worker that pops it then skips it, and it keeps no queue wait.
func (j *Job) start(wait time.Duration) (ctx context.Context, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return nil, false
	}
	j.waited = wait
	j.status = StatusRunning
	j.appendLocked(Event{Kind: EventStarted, Status: StatusRunning})
	return j.ctx, true
}

// finish moves the job to a terminal state at the given instant and
// emits the closing event. It is idempotent: once terminal, later
// finish calls (a cancel racing a drain, a worker finishing a job
// cancelled while queued) are no-ops, and it reports whether this call
// performed the transition.
func (j *Job) finish(s Status, res *Result, msg string, at time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.result = res
	j.terminateLocked(s, msg, at)
	return true
}

// cancelRequested acts on a client's cancel. A queued job is finished
// in the cancelled state at once, and the call reports true. A running
// job has its context cancelled, so Execute stops at the next iteration
// boundary and the worker lands the terminal transition (with the
// partial result). A finished job is left alone.
func (j *Job) cancelRequested(at time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.status == StatusQueued:
		j.terminateLocked(StatusCancelled, "cancelled by client before the job ran", at)
		return true
	case j.cancel != nil:
		j.cancel()
	}
	return false
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
	// SlowSpan, when > 0, is the duration at or above which a job's
	// finished trace spans are passed to OnSlowSpan (every job is
	// traced; 0 passes none).
	SlowSpan time.Duration
	// OnSlowSpan receives the slow spans (nil discards them);
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
	spanSecs      sync.Map       // span name → its span_seconds *obs.Histogram
	jobsTotal     *obs.Counter
	jobsCancelled *obs.Counter
	jobsPanicked  *obs.Counter
}

// stageBuckets bounds the stage/endpoint/span latency histograms: 1 ms
// to ~65 s, doubling.
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
	reg.GaugeFunc("cache_hits", "cache hits", func() float64 { return float64(memo.Stats().Hits) }, obs.L("cache", "trace_memo"))
	reg.GaugeFunc("cache_misses", "cache misses", func() float64 { return float64(memo.Stats().Misses) }, obs.L("cache", "trace_memo"))
	reg.GaugeFunc("cache_hits", "cache hits", func() float64 { return float64(faultgen.GenerateStats().Hits) }, obs.L("cache", "faults"))
	reg.GaugeFunc("cache_misses", "cache misses", func() float64 { return float64(faultgen.GenerateStats().Misses) }, obs.L("cache", "faults"))
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
	if j.cancelRequested(r.now()) {
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

// run executes one job end to end: it records the queue-wait and
// run-time stage samples of a job that starts, and traces the job
// through spanEnded.
func (r *Runner) run(j *Job) {
	start := r.now()
	wait := start.Sub(j.queuedAt)
	ctx, ok := j.start(wait)
	if !ok {
		return
	}
	r.stageWait.Observe(wait.Seconds())
	tracer := obs.NewTracer(j.ID)
	tracer.OnEnd = func(sp obs.SpanInfo) { r.spanEnded(j, sp) }
	root := tracer.Start("job")
	res := r.execute(obs.ContextWith(ctx, root), j, root)
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

// spanEnded is the one hook of every job's tracer. It observes the span
// into span_seconds, turns core.Verify's preprocess and iteration spans
// into the job's iteration events, streams the span itself to a job
// submitted with the trace option, and passes it to OnSlowSpan when it
// lasted at least SlowSpan.
func (r *Runner) spanEnded(j *Job, sp obs.SpanInfo) {
	h, ok := r.spanSecs.Load(sp.Name)
	if !ok {
		h, _ = r.spanSecs.LoadOrStore(sp.Name, r.svc.Obs.Histogram("span_seconds",
			"trace span latency in seconds by span name", stageBuckets, obs.L("span", sp.Name)))
	}
	h.(*obs.Histogram).Observe(sp.Dur.Seconds())
	if ev, ok := iterationEvent(sp); ok {
		j.append(ev)
	}
	if j.Spec.Options.Trace {
		s := sp
		j.append(Event{Kind: EventSpan, Span: &s})
	}
	if r.cfg.SlowSpan > 0 && sp.Dur >= r.cfg.SlowSpan && r.cfg.OnSlowSpan != nil {
		r.cfg.OnSlowSpan(j.ID, sp)
	}
}

// iterationEvent reads a job's iteration event off a finished span: the
// preprocess span is iteration 0, and an iteration span carries its
// verdict in the args core.Verify closes it with. ok is false for
// every other span.
func iterationEvent(sp obs.SpanInfo) (ev Event, ok bool) {
	switch sp.Name {
	case "preprocess":
		return Event{Kind: EventIteration, Stage: string(core.StagePre)}, true
	case "iteration":
		a := sp.Args
		ev = Event{Kind: EventIteration, Stage: a["stage"], Rollback: a["rollback"] == "true"}
		ev.Iteration, _ = strconv.Atoi(a["iter"])
		ev.Score, _ = strconv.ParseFloat(a["score"], 64)
		ev.Best, _ = strconv.ParseFloat(a["best"], 64)
		ev.Coverage, _ = strconv.ParseFloat(a["coverage"], 64)
		ev.StructCoverage, _ = strconv.ParseFloat(a["struct_coverage"], 64)
		return ev, true
	}
	return Event{}, false
}

// execute runs the job's pipeline and contains a panic in it. User
// source reaches lint, compile, sim, blast and SAT, and a panic in any of
// them fails this job with an internal error instead of unwinding the
// worker and killing the server with every in-flight job. The stack goes
// onto the job's root span and into its event history.
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
