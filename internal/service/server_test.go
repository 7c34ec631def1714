package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// testServer builds a Server whose runner uses test-local services (no
// shared process state) and, when stub is non-nil, the stubbed executor.
func testServer(t *testing.T, cfg RunnerConfig, stub *stubExec) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Services.Cache == nil {
		cfg.Services = testServices()
	}
	s := NewServer(cfg)
	if stub != nil {
		s.runner.exec = stub.exec
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, submitResponse) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, sub
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func pollTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var view JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("status for %s: HTTP %d", id, code)
		}
		if view.Status.Terminal() {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// TestServerSubmitStatusResult drives one real verification job through
// the HTTP API and checks the verdict matches a direct Execute of the
// same spec — the CLI/server parity the CI smoke job relies on.
func TestServerSubmitStatusResult(t *testing.T) {
	_, ts := testServer(t, RunnerConfig{Workers: 2, QueueLimit: 8}, nil)
	spec := JobSpec{Module: "adder_8bit", Inject: "FuncLogic"}

	resp, sub := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if sub.ID == "" || sub.Status != StatusQueued {
		t.Fatalf("submit response %+v", sub)
	}
	view := pollTerminal(t, ts, sub.ID)
	if view.Status != StatusDone || view.Result == nil || !view.Result.Success {
		t.Fatalf("job ended %s with result %+v", view.Status, view.Result)
	}

	want := Execute(spec, testServices(), nil)
	gotJSON, _ := json.Marshal(view.Result)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("server result diverges from direct Execute:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestServerRejections covers the 4xx surface: bad JSON, specs the
// shared validation path rejects (an unknown backend, a proof depth above
// MaxFormalDepth), an oversized body, and unknown job IDs.
func TestServerRejections(t *testing.T) {
	_, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 2}, newStubExec(4, false))

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}

	resp, _ = postJob(t, ts, JobSpec{Module: "adder_8bit", Options: Options{Backend: "spice"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid options: HTTP %d, want 400", resp.StatusCode)
	}

	deep := JobSpec{Module: "adder_8bit", Options: Options{Formal: true, FormalDepth: 1000000000}}
	resp, _ = postJob(t, ts, deep)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("formal depth above MaxFormalDepth: HTTP %d, want 400", resp.StatusCode)
	}

	wide := JobSpec{Module: "adder_8bit", Options: Options{Workers: 1000000000}}
	resp, _ = postJob(t, ts, wide)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers above MaxWorkers: HTTP %d, want 400", resp.StatusCode)
	}

	huge := JobSpec{Module: "adder_8bit", Source: strings.Repeat("x", maxRequestBody+1)}
	resp, _ = postJob(t, ts, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999/events", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job stream: HTTP %d, want 404", code)
	}
}

// TestServerHostileNesting sends two nestings that, without the
// parser's nesting cap, overflow the parser's or the compiler's stack, a
// fatal error no recover can catch, each as a source near the body
// limit: a unary chain (one parser call per level) and a left-leaning
// operator chain (one AST level per operator). The cap turns each into
// one syntax error, so both jobs reach a terminal state and the server
// stays healthy.
func TestServerHostileNesting(t *testing.T) {
	_, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 4}, nil)
	head := "module adder_8bit(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);\n    assign {cout, sum} = "
	tail := ";\nendmodule\n"
	n := maxRequestBody - len(head) - len(tail) - 256 // room for the JSON around the source
	for name, expr := range map[string]string{
		"unary": strings.Repeat("~", n-1) + "a",
		"chain": "a" + strings.Repeat("+a", n/2-1),
	} {
		resp, sub := postJob(t, ts, JobSpec{Module: "adder_8bit", Source: head + expr + tail})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d, want 202", name, resp.StatusCode)
		}
		view := pollTerminal(t, ts, sub.ID)
		t.Logf("%s: %d-byte source ended %s", name, len(head+expr+tail), view.Status)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after the hostile jobs: HTTP %d", code)
	}
}

// TestServerBackpressure checks the 429 + Retry-After contract and that
// the server accepts submissions again after the queue drains.
func TestServerBackpressure(t *testing.T) {
	stub := newStubExec(8, true)
	_, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 1}, stub)

	if resp, _ := postJob(t, ts, testSpec("a")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	<-stub.started
	if resp, _ := postJob(t, ts, testSpec("a")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", resp.StatusCode)
	}

	resp, _ := postJob(t, ts, testSpec("a"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(stub.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, sub := postJob(t, ts, testSpec("a"))
		if resp.StatusCode == http.StatusAccepted {
			pollTerminal(t, ts, sub.ID)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server kept rejecting after queue drained: HTTP %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDrain checks the graceful shutdown sequence over HTTP:
// in-flight jobs finish, queued jobs end drained, new submissions get
// 503, and /healthz flips to draining.
func TestServerDrain(t *testing.T) {
	stub := newStubExec(8, true)
	s, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 8}, stub)

	_, inflight := postJob(t, ts, testSpec("a"))
	<-stub.started
	_, queued := postJob(t, ts, testSpec("a"))

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Queued job must land in drained; health must report draining; new
	// submissions must get 503. (Drain flips the flag before it waits.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var view JobView
		getJSON(t, ts.URL+"/v1/jobs/"+queued.ID, &view)
		if view.Status == StatusDrained {
			if view.Result != nil {
				t.Fatalf("drained job has a result: %+v", view.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job stuck in %s, want drained", view.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var health healthBody
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz during drain: HTTP %d %+v", code, health)
	}
	if resp, _ := postJob(t, ts, testSpec("b")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}

	close(stub.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	view := pollTerminal(t, ts, inflight.ID)
	if view.Status != StatusDone {
		t.Fatalf("in-flight job ended %s, want done", view.Status)
	}
}

// TestServerEventsStream reads the SSE stream of a real job end to end:
// well-formed frames, dense sequence numbers, the queued → started →
// iteration… → terminal shape, and stream close after the terminal
// event.
func TestServerEventsStream(t *testing.T) {
	_, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 4}, nil)
	_, sub := postJob(t, ts, JobSpec{Module: "adder_8bit", Inject: "FuncLogic", Options: Options{Formal: true}})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	// The server closes the stream after the terminal event; the scanner
	// simply runs out of input.
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(evs) < 4 {
		t.Fatalf("only %d events streamed: %v", len(evs), kinds(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d; replay must be dense from 0", i, ev.Seq)
		}
	}
	if evs[0].Kind != EventQueued || evs[1].Kind != EventStarted {
		t.Fatalf("stream starts %v, want queued, started", kinds(evs[:2]))
	}
	last := evs[len(evs)-1]
	if last.Kind != EventTerminal || last.Status != StatusDone {
		t.Fatalf("stream ends %+v, want terminal/done", last)
	}
	sawIteration, sawFormal := false, false
	for _, ev := range evs {
		sawIteration = sawIteration || ev.Kind == EventIteration
		sawFormal = sawFormal || ev.Kind == EventFormal
	}
	if !sawIteration || !sawFormal {
		t.Fatalf("stream %v missing iteration or formal events", kinds(evs))
	}
}

// TestServerModulesAndMetrics checks the catalog endpoint and that a
// completed job surfaces in the metrics scrape: status counts, stage
// percentiles, endpoint accounting and non-zero cache counters, and on
// the Prometheus view the fault generator's memo (the inject job
// generated or reused its cell, so the process has at least one miss).
func TestServerModulesAndMetrics(t *testing.T) {
	_, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 4}, nil)

	var mods []moduleView
	if code := getJSON(t, ts.URL+"/v1/modules", &mods); code != http.StatusOK {
		t.Fatalf("modules: HTTP %d", code)
	}
	if len(mods) < 20 {
		t.Fatalf("catalog lists %d modules, want the full benchmark", len(mods))
	}

	_, sub := postJob(t, ts, JobSpec{Module: "adder_8bit", Inject: "FuncLogic"})
	pollTerminal(t, ts, sub.ID)

	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if m.Workers != 1 || m.QueueLimit != 4 || m.Draining {
		t.Fatalf("metrics shape wrong: %+v", m)
	}
	if m.JobsByStatus[StatusDone] != 1 {
		t.Fatalf("jobs_by_status = %v, want one done", m.JobsByStatus)
	}
	if m.Stages["run"].Count != 1 || m.Stages["run"].P50 <= 0 {
		t.Fatalf("run stage summary = %+v", m.Stages["run"])
	}
	if m.Endpoints["POST /v1/jobs"].Latency.Count == 0 {
		t.Fatalf("endpoint accounting missing: %v", m.Endpoints)
	}
	if m.Caches.Compile.Hits+m.Caches.Compile.Misses == 0 {
		t.Fatal("compile cache counters untouched after a verification")
	}
	if m.Caches.TraceMemoHitRate < 0 || m.Caches.TraceMemoHitRate > 100 {
		t.Fatalf("trace memo hit rate %f out of range", m.Caches.TraceMemoHitRate)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	prom, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, re := range []string{`(?m)^cache_hits\{cache="faults"\} \d`, `(?m)^cache_misses\{cache="faults"\} [1-9]`} {
		if !regexp.MustCompile(re).Match(prom) {
			t.Errorf("/metrics has no line matching %s", re)
		}
	}
}

// TestMetricsJSONShape pins the key paths of /v1/metrics. It decodes
// into generic maps, so a renamed, added or dropped key fails here even
// where decoding into MetricsSnapshot would silently ignore it.
// tenant_queues is omitted while no job is queued.
func TestMetricsJSONShape(t *testing.T) {
	_, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 4}, newStubExec(1, false))
	_, sub := postJob(t, ts, testSpec("a"))
	pollTerminal(t, ts, sub.ID)

	var m map[string]any
	if code := getJSON(t, ts.URL+"/v1/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	object := func(path string) map[string]any {
		t.Helper()
		v := any(m)
		for _, k := range strings.Split(path, ".")[1:] {
			parent, _ := v.(map[string]any)
			v = parent[k]
		}
		o, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("%s is %T, want an object", path, v)
		}
		return o
	}
	counters := []string{"Entries", "Evictions", "Hits", "Misses"}
	for path, want := range map[string][]string{
		"$":                   {"caches", "draining", "endpoints", "jobs_by_status", "queue_depth", "queue_limit", "running", "stages", "workers"},
		"$.caches":            {"compile", "compile_hit_rate", "trace_memo", "trace_memo_hit_rate"},
		"$.caches.compile":    counters,
		"$.caches.trace_memo": counters,
		"$.stages.run":        {"count", "p50_ms", "p95_ms", "p99_ms"},
	} {
		var got []string
		for k := range object(path) {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s keys = %q, want %q", path, got, want)
		}
	}
}

// testServices returns fresh, test-local simulation state so server
// tests cannot observe (or pollute) the process-wide shared caches.
func testServices() Services {
	return Services{Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}
}

// TestServerCancel drives the DELETE /v1/jobs/{id} surface: a queued
// job reports cancelled with 202, re-cancel is an idempotent 202, an
// unknown ID is 404, and the cancellation shows up in both metrics
// surfaces (JSON status counts and the Prometheus counter).
func TestServerCancel(t *testing.T) {
	stub := newStubExec(8, true)
	s, ts := testServer(t, RunnerConfig{Workers: 1, QueueLimit: 8}, stub)

	_, blockSub := postJob(t, ts, testSpec("a"))
	<-stub.started
	_, sub := postJob(t, ts, testSpec("a"))

	del := func(id string) (int, JobView) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		defer resp.Body.Close()
		var view JobView
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatalf("decode cancel response: %v", err)
			}
		}
		return resp.StatusCode, view
	}

	code, view := del(sub.ID)
	if code != http.StatusAccepted || view.Status != StatusCancelled {
		t.Fatalf("cancel queued job: HTTP %d, status %s", code, view.Status)
	}
	if code, view = del(sub.ID); code != http.StatusAccepted || view.Status != StatusCancelled {
		t.Fatalf("re-cancel: HTTP %d, status %s; want idempotent 202", code, view.Status)
	}
	if code, _ = del("job-999"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: HTTP %d, want 404", code)
	}

	close(stub.release)
	pollTerminal(t, ts, blockSub.ID)

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.JobsByStatus[StatusCancelled] != 1 {
		t.Fatalf("jobs_by_status = %v, want one cancelled", m.JobsByStatus)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 2",
		"jobs_cancelled_total 1",
		`jobs_by_status_total{status="cancelled"} 1`,
		`cache_hits{cache="compile"}`,
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="run",le="+Inf"}`,
		`http_request_seconds_count{endpoint="POST /v1/jobs"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	_ = s
}
