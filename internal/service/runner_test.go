package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uvllm/internal/obs"
)

// stubExec is a controllable Runner.exec replacement: every invocation
// reports itself on started, then blocks until release is closed (or
// proceeds immediately when release is nil).
type stubExec struct {
	started chan string   // receives the job's tenant per invocation
	release chan struct{} // close to let blocked invocations finish
}

func newStubExec(buffered int, blocking bool) *stubExec {
	s := &stubExec{started: make(chan string, buffered)}
	if blocking {
		s.release = make(chan struct{})
	}
	return s
}

func (s *stubExec) exec(_ context.Context, spec JobSpec, _ Services, _ func(Event)) Result {
	s.started <- spec.Tenant
	if s.release != nil {
		<-s.release
	}
	return Result{Success: true, Stage: "stub"}
}

// testSpec is a minimal valid spec (the runner validates against the
// real dataset even with a stubbed executor).
func testSpec(tenant string) JobSpec {
	return JobSpec{Module: "adder_8bit", Tenant: tenant}
}

func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		evs, more, _ := j.EventsSince(0)
		_ = evs
		if j.Status() == want {
			return
		}
		select {
		case <-more:
		case <-deadline:
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.Status(), want)
		}
	}
}

// TestRunnerBackpressure checks the bounded-queue contract: submissions
// beyond the limit fail fast with ErrQueueFull and are accepted again
// once the queue drains.
func TestRunnerBackpressure(t *testing.T) {
	stub := newStubExec(8, true)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 2})
	r.exec = stub.exec
	defer r.Drain(context.Background())

	if _, err := r.Submit(testSpec("a")); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-stub.started // the single worker is now occupied

	for i := 0; i < 2; i++ {
		if _, err := r.Submit(testSpec("a")); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := r.Submit(testSpec("a")); err != ErrQueueFull {
		t.Fatalf("over-limit submit: err = %v, want ErrQueueFull", err)
	}

	// Unblock everything (a closed release channel never blocks again);
	// once the queue drains, submissions are accepted again.
	close(stub.release)
	deadline := time.After(5 * time.Second)
	for r.QueueDepth() > 0 {
		select {
		case <-deadline:
			t.Fatalf("queue never drained (depth %d)", r.QueueDepth())
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := r.Submit(testSpec("a")); err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
}

// TestRunnerFairness checks round-robin tenant scheduling: with one
// worker and queues pre-loaded while the worker is blocked, execution
// interleaves tenants instead of draining the largest queue first.
func TestRunnerFairness(t *testing.T) {
	stub := newStubExec(16, true)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 16})
	r.exec = stub.exec

	blocker, err := r.Submit(testSpec("blocker"))
	if err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	<-stub.started // worker occupied; everything below queues up

	for i := 0; i < 4; i++ {
		if _, err := r.Submit(testSpec("alice")); err != nil {
			t.Fatalf("alice %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(testSpec("bob")); err != nil {
			t.Fatalf("bob %d: %v", i, err)
		}
	}

	close(stub.release)
	var order []string
	for i := 0; i < 6; i++ {
		select {
		case tenant := <-stub.started:
			order = append(order, tenant)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 6 queued jobs ran: %v", i, order)
		}
	}
	want := []string{"alice", "bob", "alice", "bob", "alice", "alice"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want round-robin %v", order, want)
	}
	waitStatus(t, blocker, StatusDone)
	r.Drain(context.Background())
}

// TestRunnerDrain checks the graceful-drain contract: in-flight jobs
// finish, queued jobs terminate in the drained state without running,
// and new submissions are refused with ErrDraining.
func TestRunnerDrain(t *testing.T) {
	stub := newStubExec(8, true)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 8})
	r.exec = stub.exec

	inflight, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("inflight submit: %v", err)
	}
	<-stub.started
	queued, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("queued submit: %v", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- r.Drain(context.Background()) }()

	// The queued job must terminate as drained without ever executing.
	waitStatus(t, queued, StatusDrained)
	if _, ok := queued.Result(); ok {
		t.Fatal("drained job has a result; it must never have run")
	}
	if _, err := r.Submit(testSpec("b")); err != ErrDraining {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	// Drain must wait for the in-flight job.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stub.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitStatus(t, inflight, StatusDone)
	if res, ok := inflight.Result(); !ok || !res.Success {
		t.Fatalf("in-flight job result = %+v ok=%v, want success", res, ok)
	}

	// Drain is idempotent, and a cancelled context reports cleanly.
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestRunnerDrainTimeout checks that a drain bounded by an expiring
// context returns the context error while a job is still stuck.
func TestRunnerDrainTimeout(t *testing.T) {
	stub := newStubExec(8, true)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 8})
	r.exec = stub.exec
	if _, err := r.Submit(testSpec("a")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-stub.started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain err = %v, want DeadlineExceeded", err)
	}
	close(stub.release)
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("final drain: %v", err)
	}
}

// TestRunnerRejectsInvalidSpec checks that validation failures surface
// at submission and leave no job behind.
func TestRunnerRejectsInvalidSpec(t *testing.T) {
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 2})
	r.exec = newStubExec(1, false).exec
	defer r.Drain(context.Background())

	if _, err := r.Submit(JobSpec{Module: "warp_core"}); err == nil {
		t.Fatal("unknown module accepted")
	}
	if _, err := r.Submit(JobSpec{Module: "adder_8bit", Options: Options{FormalDepth: -1}}); err == nil {
		t.Fatal("invalid options accepted")
	}
	if depth := r.QueueDepth(); depth != 0 {
		t.Fatalf("rejected submissions left %d jobs queued", depth)
	}
}

// TestJobEventSequence checks the dense per-job Seq numbering and the
// EventsSince resume contract a reconnecting stream consumer relies on.
func TestJobEventSequence(t *testing.T) {
	stub := newStubExec(1, false)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 2})
	r.exec = stub.exec
	defer r.Drain(context.Background())

	j, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.WaitTerminal(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	evs, _, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("terminal job reported as live")
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d; numbering must be dense from 0", i, ev.Seq)
		}
	}
	if evs[0].Kind != EventQueued || evs[len(evs)-1].Kind != EventTerminal {
		t.Fatalf("event kinds = %v, want queued..terminal", kinds(evs))
	}
	// Resume from a mid-stream offset: no duplicates, no gaps.
	tail, _, _ := j.EventsSince(1)
	if len(tail) != len(evs)-1 || tail[0].Seq != 1 {
		t.Fatalf("EventsSince(1) returned %d events starting at %d", len(tail), tail[0].Seq)
	}
}

func kinds(evs []Event) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, ev.Kind)
	}
	return out
}

// TestRunnerStageStats checks that queue-wait and run samples are
// recorded for executed jobs, read from the registry's snapshot: the
// feed of the /v1/metrics percentiles.
func TestRunnerStageStats(t *testing.T) {
	stub := newStubExec(4, false)
	r := NewRunner(RunnerConfig{Workers: 2, QueueLimit: 8})
	r.exec = stub.exec
	for i := 0; i < 3; i++ {
		j, err := r.Submit(testSpec("a"))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := j.WaitTerminal(context.Background()); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	r.Drain(context.Background())
	wait, run := seriesOf(r, "stage_seconds", "queue_wait"), seriesOf(r, "stage_seconds", "run")
	if len(wait.Samples) != 3 || len(run.Samples) != 3 || wait.Count != 3 || run.Count != 3 {
		t.Fatalf("stage samples = %d wait / %d run (counts %d / %d), want 3 / 3",
			len(wait.Samples), len(run.Samples), wait.Count, run.Count)
	}
}

// seriesOf returns the series of the runner registry's family whose one
// label has the given value (the zero series when there is none).
func seriesOf(r *Runner, family, label string) obs.SeriesSnapshot {
	for _, m := range r.svc.Obs.Snapshot() {
		if m.Name != family {
			continue
		}
		for _, s := range m.Series {
			if len(s.Labels) == 1 && s.Labels[0].Value == label {
				return s
			}
		}
	}
	return obs.SeriesSnapshot{}
}

// TestCancelledQueuedJobRecordsNoWait checks that a job cancelled while
// queued never records a queue wait: the worker that pops it skips it
// without a stage_seconds{stage="queue_wait"} sample, and its view
// reports no wait, since it never ran.
func TestCancelledQueuedJobRecordsNoWait(t *testing.T) {
	stub := newStubExec(4, true)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 8})
	r.exec = stub.exec
	defer r.Drain(context.Background())

	if _, err := r.Submit(testSpec("a")); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-stub.started
	victim, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	after, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	r.Cancel(victim.ID)
	close(stub.release)
	// One tenant's queue is FIFO: the worker popped the victim before
	// the job behind it.
	waitStatus(t, after, StatusDone)

	if n := seriesOf(r, "stage_seconds", "queue_wait").Count; n != 2 {
		t.Errorf("queue_wait samples = %d, want 2 (the two jobs that started)", n)
	}
	if v := viewOf(victim); v.Status != StatusCancelled || v.QueueWaitMS != 0 {
		t.Errorf("cancelled-while-queued job: status %s, queue_wait_ms %v; want cancelled, 0", v.Status, v.QueueWaitMS)
	}
}

// TestRunnerResultTTL pins the terminal-result garbage collection under a
// fake clock: a finished job stays addressable within its TTL, and a
// lookup after the TTL elapses reports not-found — the HTTP layer's 404.
// Live jobs are never collected, whatever the clock says.
func TestRunnerResultTTL(t *testing.T) {
	clock := struct {
		mu  chan struct{}
		now time.Time
	}{mu: make(chan struct{}, 1), now: time.Unix(1_000_000, 0)}
	clock.mu <- struct{}{}
	read := func() time.Time {
		<-clock.mu
		n := clock.now
		clock.mu <- struct{}{}
		return n
	}
	advance := func(d time.Duration) {
		<-clock.mu
		clock.now = clock.now.Add(d)
		clock.mu <- struct{}{}
	}

	stub := newStubExec(8, false)
	r := NewRunner(RunnerConfig{Workers: 1, ResultTTL: time.Minute})
	r.exec = stub.exec
	r.now = read
	defer r.Drain(context.Background())

	j, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusDone)

	// Inside the TTL the job and its result remain addressable.
	advance(59 * time.Second)
	if _, ok := r.Job(j.ID); !ok {
		t.Fatal("terminal job vanished before its TTL")
	}
	if _, ok := j.Result(); !ok {
		t.Fatal("terminal job lost its result")
	}

	// Crossing the TTL, the next lookup collects it: not-found, exactly
	// like an unknown ID.
	advance(2 * time.Second)
	if _, ok := r.Job(j.ID); ok {
		t.Fatal("terminal job still addressable past its TTL")
	}

	// A live (blocked) job is immune to the TTL no matter the clock.
	blocked := newStubExec(1, true)
	r.exec = blocked.exec
	j2, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	<-blocked.started
	advance(time.Hour)
	if _, ok := r.Job(j2.ID); !ok {
		t.Fatal("running job was garbage-collected")
	}
	close(blocked.release)
	waitStatus(t, j2, StatusDone)
}

// TestRunnerCancel covers both cancellation shapes: a queued job goes
// terminal immediately and is skipped by the worker that eventually
// pops it; a running job has its context cancelled and lands cancelled
// when the executor returns a Cancelled result. Cancelling terminal or
// unknown jobs is a no-op.
func TestRunnerCancel(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 8})
	r.exec = func(ctx context.Context, spec JobSpec, _ Services, _ func(Event)) Result {
		started <- spec.Tenant
		select {
		case <-ctx.Done():
			return Result{Cancelled: true, Stage: "verify"}
		case <-release:
			return Result{Success: true, Stage: "stub"}
		}
	}

	running, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	queued, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Queued: terminal immediately, the worker never runs it.
	if _, ok := r.Cancel(queued.ID); !ok {
		t.Fatal("cancel of a queued job reported unknown")
	}
	if queued.Status() != StatusCancelled {
		t.Fatalf("queued job status = %s, want cancelled immediately", queued.Status())
	}
	if _, hasResult := queued.Result(); hasResult {
		t.Fatal("never-ran job has a result")
	}

	// Running: cancellation propagates through the context; the worker
	// lands the terminal state with the executor's (cancelled) result.
	if _, ok := r.Cancel(running.ID); !ok {
		t.Fatal("cancel of a running job reported unknown")
	}
	waitStatus(t, running, StatusCancelled)
	res, ok := running.Result()
	if !ok || !res.Cancelled {
		t.Fatalf("running job result = %+v (ok=%v), want cancelled", res, ok)
	}

	// Terminal: idempotent no-op; unknown: not found.
	if j, ok := r.Cancel(running.ID); !ok || j.Status() != StatusCancelled {
		t.Fatal("re-cancel of a terminal job must be a found no-op")
	}
	if _, ok := r.Cancel("job-999"); ok {
		t.Fatal("cancel of an unknown job reported found")
	}

	if got := r.jobsCancelled.Value(); got != 2 {
		t.Fatalf("jobs_cancelled_total = %d, want 2", got)
	}
	close(release)
	r.Drain(context.Background())
}

// TestRunnerTraceSpans checks that a trace-enabled job streams span
// events carrying a root "job" span, and that an untraced job streams
// none. Traced or not, every job's spans feed span_seconds and reach
// OnSlowSpan once they last SlowSpan.
func TestRunnerTraceSpans(t *testing.T) {
	stub := newStubExec(2, false)
	var mu sync.Mutex
	var slow []string
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 4, SlowSpan: time.Nanosecond,
		OnSlowSpan: func(jobID string, sp obs.SpanInfo) {
			mu.Lock()
			slow = append(slow, jobID+"/"+sp.Name)
			mu.Unlock()
		}})
	r.exec = stub.exec
	defer r.Drain(context.Background())

	spec := testSpec("a")
	spec.Options.Trace = true
	traced, err := r.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, traced, StatusDone)
	evs, _, _ := traced.EventsSince(0)
	var spans int
	for _, ev := range evs {
		if ev.Kind == EventSpan {
			spans++
			if ev.Span == nil || ev.Span.Name != "job" {
				t.Fatalf("span event payload = %+v, want the root job span", ev.Span)
			}
		}
	}
	if spans != 1 {
		t.Fatalf("traced stub job streamed %d span events, want 1 (the root)", spans)
	}

	plain, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, plain, StatusDone)
	evs, _, _ = plain.EventsSince(0)
	for _, ev := range evs {
		if ev.Kind == EventSpan {
			t.Fatal("untraced job streamed a span event")
		}
	}

	if n := seriesOf(r, "span_seconds", "job").Count; n != 2 {
		t.Errorf(`span_seconds{span="job"} count = %d, want 2 (both jobs)`, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{traced.ID + "/job", plain.ID + "/job"}; fmt.Sprint(slow) != fmt.Sprint(want) {
		t.Errorf("OnSlowSpan saw %v, want %v", slow, want)
	}
}

// TestRunnerContainsPanic: a job whose execution panics ends failed with
// an internal error, its stack in the event history and on the root
// span, the panic counter reads 1, and the worker goes on to finish the
// next job with nothing left running.
func TestRunnerContainsPanic(t *testing.T) {
	stub := newStubExec(4, false)
	r := NewRunner(RunnerConfig{Workers: 1, QueueLimit: 4})
	r.exec = func(ctx context.Context, spec JobSpec, svc Services, emit func(Event)) Result {
		if spec.Tenant == "boom" {
			var m map[string]int
			m["x"]++ // nil-map write: a runtime panic deep in a job
		}
		return stub.exec(ctx, spec, svc, emit)
	}
	defer r.Drain(context.Background())

	spec := testSpec("boom")
	spec.Options.Trace = true
	bad, err := r.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	good, err := r.Submit(testSpec("a"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, bad, StatusFailed)
	waitStatus(t, good, StatusDone)

	evs, _, _ := bad.EventsSince(0)
	var sawPanic, sawStackOnSpan bool
	var terminal string
	for _, ev := range evs {
		switch ev.Kind {
		case EventPanic:
			sawPanic = strings.Contains(ev.Message, "assignment to entry in nil map") &&
				strings.Contains(ev.Message, "TestRunnerContainsPanic")
		case EventSpan:
			sawStackOnSpan = ev.Span != nil && ev.Span.Name == "job" &&
				strings.Contains(ev.Span.Args["stack"], "TestRunnerContainsPanic")
		case EventTerminal:
			terminal = ev.Message
		}
	}
	if !sawPanic {
		t.Fatalf("no panic event with the value and stack in %+v", evs)
	}
	if !sawStackOnSpan {
		t.Fatal("the root job span does not carry the panic stack")
	}
	if !strings.HasPrefix(terminal, "internal error: ") {
		t.Fatalf("terminal message %q, want an internal error", terminal)
	}
	if got := r.jobsPanicked.Value(); got != 1 {
		t.Fatalf("jobs_panicked_total = %d, want 1", got)
	}
	deadline := time.After(5 * time.Second)
	for {
		if _, _, running := r.Snapshot(); running == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("a job is still counted as running after both finished")
		case <-time.After(time.Millisecond):
		}
	}
}
