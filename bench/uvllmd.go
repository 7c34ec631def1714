package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"uvllm/internal/core"
	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/obs"
	"uvllm/internal/service"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// The uvllmd traffic model. No production trace exists, so jobs carry
// only what the benchmark itself defines: a benchmark instance and an
// oracle seed, from one tenant, with the service's default options. The
// proof knob is left off (formal_mix covers the prover) and so is
// multi-tenant fair scheduling, until a trace says what mix to use.
const (
	uvllmdWorkers = 2   // the server's worker pool, = nproc on the reference box
	uvllmdClients = 2   // client goroutines and keep-alive connections, <= nproc
	oracleSeeds   = 8   // oracle seeds 1..8, one per round of instances
	latencyRate   = 30  // jobs/s of the latency phase
	latencyShare  = 0.5 // share of the budget the latency phase aims at
	jobTimeout    = 10 * time.Second
	recheckEvery  = 16 // every 16th request of a phase is re-run on fresh state
	satSegments   = 2
	// satWindow is the standing backlog of the saturation phase: each
	// worker has one job running and one queued behind it.
	satWindow = 2 * uvllmdWorkers
)

// served is one request as the client saw it. The client keeps the full
// result only of the requests it re-checks, and of the others just what
// the per-layer counts read, so the benchmark's own heap adds little to
// the measuring process's memory peak.
type served struct {
	spec   service.JobSpec
	jobID  string
	result *core.Result    // the counted fields; nil until fetched
	full   *service.Result // every recheckEvery-th request only
}

// uvllmdEnv is the running server and its client.
type uvllmdEnv struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// runUvllmd serves open-loop Poisson jobs over HTTP from a warm
// in-process uvllmd server. One op is one job, timed from its due time
// to receipt of the status response carrying its terminal result.
func runUvllmd(rc *runCtx) error {
	svc := service.Services{Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}
	env := startUvllmd(service.RunnerConfig{Workers: uvllmdWorkers, Services: svc})
	defer env.close()
	// Warm-up: every golden module once, as a server sees after start.
	var warm []service.JobSpec
	for _, m := range trim(rc, dataset.All()) {
		warm = append(warm, service.JobSpec{Module: m.Name})
	}
	wr := env.phase(listDraw(warm), make([]time.Duration, len(warm)), 0)
	for i, t := range wr.timings {
		if t.Err != nil {
			return fmt.Errorf("warm-up job %s: %w", warm[i].Module, t.Err)
		}
	}
	specs := trim(rc, benchmarkSpecs())
	if rc.ready() {
		return nil
	}

	// Both phases run in stretches with a host-speed probe after each.
	// The latency phase is whole rounds, one open-loop stretch each, so
	// every run of a given budget serves the same jobs and the latency
	// percentiles carry no sampling noise from the mix; the seed moves
	// only the order and the arrival times. The saturation phase, in
	// satSegments closed-loop stretches, takes the rest of the budget.
	draw := deal(rand.New(rand.NewSource(rc.seed)), specs)
	rounds := max(1, int(math.Round(latencyShare*rc.seconds.Seconds()*latencyRate/float64(len(specs)))))
	roundDur := time.Duration(float64(len(specs)) / latencyRate * float64(time.Second))
	satDur := max(rc.seconds-time.Duration(rounds)*roundDur, rc.seconds/4) / satSegments
	rc.startTimed()
	c0 := svc.Cache.Stats()
	m0 := svc.Memo.Stats()
	var lat, sat phaseResult
	for k := 0; k < rounds; k++ {
		r := env.phase(draw, poissonSchedule(rc.seed*1000+int64(k), latencyRate, len(specs)), 0)
		for _, t := range r.timings {
			rc.op(t.Done.Sub(t.Due), t.Err)
		}
		rc.probe()
		lat.add(r)
	}
	ok, satS := 0, 0.0
	for k := 0; k < satSegments; k++ {
		t0 := time.Now()
		r := env.phase(draw, nil, satDur)
		satS += time.Since(t0).Seconds()
		rc.probe()
		for _, t := range r.timings {
			rc.untimedOp(t.Err)
			if t.Err == nil {
				ok++
			}
		}
		sat.add(r)
	}
	rc.stopTimed(rc.out.Attempted)
	rc.out.E2E["throughput_per_s"] = float64(ok) / (satS * rc.out.HostFactor)
	rc.out.Info["lat.jobs"] = float64(len(lat.timings))
	rc.out.Info["sat.jobs"] = float64(len(sat.timings))
	lateMS := make([]float64, len(lat.timings))
	for i, t := range lat.timings {
		lateMS[i] = t.LateMS()
	}
	rc.out.Info["lat.gen_late_ms_max"] = maxOf(lateMS)
	rc.out.Layer["service.backlog_max"] = float64(lat.backlogMax)
	all := append(lat.served, sat.served...)
	serviceLayers(rc, all, svc.Cache.Stats(), c0, svc.Memo.Stats(), m0)
	rc.out.Info["jobs.served"] = float64(len(all))

	// Every 16th request, re-run on fresh simulation state through the
	// CLI path, must produce a byte-identical Result (untimed).
	for _, s := range all {
		if s.full == nil {
			continue
		}
		want, werr := json.Marshal(service.Execute(s.spec, service.Services{Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}, nil))
		got, gerr := json.Marshal(s.full)
		rc.check(werr == nil && gerr == nil && bytes.Equal(got, want),
			"job %s (%s %s/%d seed %d): served result differs from a fresh Execute (%v, %v)",
			s.jobID, s.spec.Module, s.spec.Inject, s.spec.Variant, s.spec.Seed, werr, gerr)
	}
	if !rc.trace {
		return nil
	}

	// Traced phase: a second server over the same warm caches, tracing
	// every job through the slow-span hook at a 1 ns threshold.
	var spansMu sync.Mutex
	jobSpans := map[string][]obs.SpanInfo{}
	tenv := startUvllmd(service.RunnerConfig{
		Workers: uvllmdWorkers, Services: svc, SlowSpan: time.Nanosecond,
		OnSlowSpan: func(id string, sp obs.SpanInfo) {
			spansMu.Lock()
			jobSpans[id] = append(jobSpans[id], sp)
			spansMu.Unlock()
		},
	})
	defer tenv.close()
	c0, m0 = svc.Cache.Stats(), svc.Memo.Stats()
	tr := tenv.phase(draw, poissonSchedule(rc.seed*1000+999, latencyRate, len(specs)), 0)
	var tLat []float64
	var spans []span
	spansMu.Lock()
	defer spansMu.Unlock()
	for i, t := range tr.timings {
		id := tr.served[i].jobID
		rc.check(t.Err == nil, "traced job %d: %v", i, t.Err)
		rc.check(len(jobSpans[id]) > 0, "traced job %s reported no spans", id)
		tLat = append(tLat, t.LatencyMS()*rc.out.HostFactor)
		spans = append(spans, requestSpans(id, t, jobSpans[id])...)
	}
	serviceLayers(rc, tr.served, svc.Cache.Stats(), c0, svc.Memo.Stats(), m0)
	return rc.finishTrace(spans, median(tLat), rc.out.Op.Median)
}

// startUvllmd starts a server on a loopback listener with a client
// limited to uvllmdClients connections.
func startUvllmd(cfg service.RunnerConfig) *uvllmdEnv {
	env := &uvllmdEnv{srv: service.NewServer(cfg)}
	env.ts = httptest.NewServer(env.srv)
	env.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: uvllmdClients, MaxIdleConnsPerHost: uvllmdClients,
	}}
	return env
}

// benchmarkSpecs addresses each benchmark instance as a job: by its
// index among the validated variants of its (module, class) cell, which
// Benchmark keeps in generation order.
func benchmarkSpecs() []service.JobSpec {
	var specs []service.JobSpec
	cell := map[string]int{}
	for _, f := range faultgen.Benchmark() {
		key := f.Module + "/" + string(f.Class)
		specs = append(specs, service.JobSpec{Module: f.Module, Inject: string(f.Class), Variant: cell[key]})
		cell[key]++
	}
	return specs
}

func (e *uvllmdEnv) close() {
	e.ts.Close()
	e.client.CloseIdleConnections()
	_ = e.srv.Drain(context.Background()) // every job has finished; nothing to report
}

// deal draws jobs in rounds: each round serves every benchmark instance
// once, in an order shuffled by rng, all with the round's oracle seed
// (1..oracleSeeds, cycling). So the first n rounds are the same jobs
// under every seed.
func deal(rng *rand.Rand, specs []service.JobSpec) func() service.JobSpec {
	var deck []int
	round := 0
	return func() service.JobSpec {
		if len(deck) == 0 {
			deck = rng.Perm(len(specs))
			round++
		}
		s := specs[deck[0]]
		deck = deck[1:]
		s.Seed = int64(1 + (round-1)%oracleSeeds)
		return s
	}
}

// phaseResult is one load phase.
type phaseResult struct {
	timings    []reqTiming
	served     []served
	backlogMax int
}

// phase runs one load phase, drawing request i's spec as the i-th call
// of draw. With due offsets it is open-loop; with satDur > 0 it is
// closed-loop for that long with satWindow jobs outstanding.
func (e *uvllmdEnv) phase(draw func() service.JobSpec, due []time.Duration, satDur time.Duration) phaseResult {
	var mu sync.Mutex
	var srv []served
	g := &loadGen{
		clients: uvllmdClients, timeout: jobTimeout,
		submit: func(i int) (func(context.Context) error, error) {
			mu.Lock()
			for len(srv) <= i { // specs are drawn in request order
				srv = append(srv, served{spec: draw()})
			}
			spec := srv[i].spec
			mu.Unlock()
			id, err := e.submit(spec)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			srv[i].jobID = id
			mu.Unlock()
			job, ok := e.srv.Runner().Job(id)
			if !ok {
				return nil, fmt.Errorf("job %s vanished after submit", id)
			}
			return func(ctx context.Context) error {
				_, err := job.WaitTerminal(ctx)
				return err
			}, nil
		},
		fetch: func(i int) error {
			mu.Lock()
			id := srv[i].jobID
			mu.Unlock()
			v, err := e.fetch(id)
			mu.Lock()
			if r := v.Result; r != nil {
				srv[i].result = &core.Result{Success: r.Success, Iterations: r.Iterations, Usage: r.Usage, Times: r.Times}
				if i%recheckEvery == 0 {
					srv[i].full = r
				}
			}
			mu.Unlock()
			return err
		},
	}

	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	backlog := 0
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				backlog = max(backlog, e.srv.Runner().QueueDepth())
			}
		}
	}()
	var timings []reqTiming
	if satDur > 0 {
		timings = g.closed(satWindow, satDur)
	} else {
		timings = g.open(time.Now(), due)
	}
	close(stop)
	samplerWG.Wait()
	return phaseResult{timings: timings, served: srv[:len(timings)], backlogMax: backlog}
}

func (p *phaseResult) add(q phaseResult) {
	p.timings = append(p.timings, q.timings...)
	p.served = append(p.served, q.served...)
	p.backlogMax = max(p.backlogMax, q.backlogMax)
}

// listDraw draws specs from a fixed list, in order.
func listDraw(specs []service.JobSpec) func() service.JobSpec {
	i := 0
	return func() service.JobSpec {
		i++
		return specs[i-1]
	}
}

// submit posts one job and returns its ID; anything but 202 fails.
func (e *uvllmdEnv) submit(spec service.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := e.client.Post(e.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return sub.ID, nil
}

// fetch reads a terminal job's status; a job that could not run fails.
func (e *uvllmdEnv) fetch(id string) (service.JobView, error) {
	var v service.JobView
	resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return v, fmt.Errorf("fetch %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("fetch %s: HTTP %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("fetch %s: %w", id, err)
	}
	switch {
	case !v.Status.Terminal() || v.Result == nil:
		return v, fmt.Errorf("job %s: status %s without a result", id, v.Status)
	case v.Result.Error != "":
		return v, fmt.Errorf("job %s: %s", id, v.Result.Error)
	}
	return v, nil
}

// requestSpans lays one traced request out as a span tree: the client's
// root "request" interval over the generator's lateness, the HTTP
// round trips, the queue wait, the server's own "job" span tree and the
// client's wait for the terminal notification.
func requestSpans(jobID string, t reqTiming, jobSpans []obs.SpanInfo) []span {
	const rootID = 1 << 40 // above any tracer-assigned ID
	out := fromObs(jobID, jobSpans)
	var jobStart, jobEnd time.Time
	for i := range out {
		if out[i].Parent == 0 {
			out[i].Parent = rootID
			jobStart, jobEnd = out[i].Start, out[i].end()
		}
	}
	id := int64(rootID)
	add := func(name string, a, b time.Time) {
		if b.After(a) && !a.IsZero() {
			id++
			out = append(out, span{Group: jobID, ID: id, Parent: rootID, Name: name, Start: a, Dur: b.Sub(a)})
		}
	}
	// The client intervals tile the request around the job: a worker
	// often starts the job before the submit response reaches the client,
	// and a short job can end before it does, so the submit interval is
	// cut where the job runs.
	out = append(out, span{Group: jobID, ID: rootID, Name: "request", Start: t.Due, Dur: t.Done.Sub(t.Due)})
	add("loadgen.late", t.Due, t.Sent)
	add("http.submit", t.Sent, earliest(t.Submitted, jobStart))
	add("service.queue_wait", t.Submitted, jobStart)
	add("http.submit", jobEnd, t.Submitted)
	add("loadgen.wait", latest(jobEnd, t.Submitted), t.FetchStart)
	add("http.fetch", t.FetchStart, t.Done)
	return out
}

func earliest(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// serviceLayers sets the repair-loop and cache counts over served jobs.
func serviceLayers(rc *runCtx, all []served, c1, c0 sim.CacheStats, m1, m0 uvm.TraceMemoStats) {
	var results []core.Result
	for _, s := range all {
		if s.result != nil {
			results = append(results, *s.result)
		}
	}
	coreLayers(rc, results)
	c1.Hits -= c0.Hits
	c1.Misses -= c0.Misses
	m1.Hits -= m0.Hits
	m1.Misses -= m0.Misses
	cacheLayers(rc, c1, m1, len(all))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
