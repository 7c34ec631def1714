package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"uvllm/internal/metrics"
)

// setupReps is how many times a run sets its workload up, each time in
// a fresh process; setup_s is the median. Process-wide state (the
// faultgen benchmark, shared compile caches) is built once per process,
// so only a new process measures it again.
const setupReps = 5

// childTimeout bounds one child process, so a wedged workload fails its
// run instead of hanging it.
const childTimeout = 170 * time.Second

// childOut is what a workload child reports to its parent. Times in
// it are scaled to reference host speed (calib.go) unless named raw.
type childOut struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	SetupS     float64            `json:"setup_s"`
	SetupRawS  float64            `json:"setup_raw_s"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`    // failed correctness checks
	OpErrors   []string           `json:"op_errors,omitempty"` // first few failed ops
	Op         summary            `json:"op_ms"`
	Passes     []float64          `json:"pass_s,omitempty"`
	RawPasses  []float64          `json:"raw_pass_s,omitempty"`
	Probes     []float64          `json:"probe_ms"` // speed-kernel durations, in order
	HostFactor float64            `json:"host_factor"`
	E2E        map[string]float64 `json:"e2e"`
	Layer      map[string]float64 `json:"layer"`
	Ledger     *ledger            `json:"ledger,omitempty"`
	Digests    map[string]string  `json:"digests,omitempty"`
	Counts     map[string]int     `json:"counts,omitempty"` // exact, must repeat per seed
	Info       map[string]float64 `json:"info,omitempty"`
}

// runCtx is a workload's view of one child run.
type runCtx struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	traceDir  string
	setupOnly bool
	started   time.Time
	out       *childOut
	// limit, when positive, trims each workload's inputs to their first
	// limit items so the smoke test runs every workload in seconds.
	limit int

	mu    sync.Mutex
	opsMS []float64

	timedWall time.Time
	timedCPU  time.Duration
	timedRT   []rtmetrics.Sample
	probeCPU  time.Duration // spent in probes since startTimed
}

func newRunCtx(w string, seed int64, seconds time.Duration, trace bool, traceDir string, setupOnly bool, started time.Time) *runCtx {
	return &runCtx{
		seed: seed, seconds: seconds, trace: trace, traceDir: traceDir,
		setupOnly: setupOnly, started: started,
		out: &childOut{
			Workload: w, Seed: seed,
			E2E: map[string]float64{}, Layer: map[string]float64{},
			Digests: map[string]string{}, Counts: map[string]int{}, Info: map[string]float64{},
		},
	}
}

// trim applies the run's input limit to xs.
func trim[T any](rc *runCtx, xs []T) []T {
	if rc.limit > 0 && rc.limit < len(xs) {
		return xs[:rc.limit]
	}
	return xs
}

// ready marks the end of set-up, probes the host speed, and reports
// whether the run stops here.
func (rc *runCtx) ready() bool {
	rc.out.SetupRawS = time.Since(rc.started).Seconds()
	rc.probe()
	return rc.setupOnly
}

// check records a failed correctness check.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	rc.mu.Lock()
	rc.out.Errors = append(rc.out.Errors, fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

// op records one timed operation; err marks it failed.
func (rc *runCtx) op(d time.Duration, err error) {
	rc.mu.Lock()
	rc.opsMS = append(rc.opsMS, ms(d))
	rc.mu.Unlock()
	rc.untimedOp(err)
}

// untimedOp counts an operation whose latency is not a sample (the
// uvllmd saturation phase counts jobs, not their latency).
func (rc *runCtx) untimedOp(err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.out.Attempted++
	if err != nil {
		rc.out.Failed++
		if len(rc.out.OpErrors) < 8 {
			rc.out.OpErrors = append(rc.out.OpErrors, err.Error())
		}
	}
}

// Go runtime counters sampled around the timed phase.
var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

func sampleFloat(s rtmetrics.Sample) float64 {
	switch s.Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64())
	case rtmetrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startTimed opens the untraced timed phase with a fresh probe.
func (rc *runCtx) startTimed() {
	rc.probe()
	rc.probeCPU = 0
	rc.timedRT = readRuntime()
	rc.timedCPU = processCPU()
	rc.timedWall = time.Now()
}

// stopTimed closes the timed phase over ops operations with a last
// probe, scales its times to reference speed, and sets cpu_ms_per_op,
// the op latency percentiles and the Go runtime layer metrics.
func (rc *runCtx) stopTimed(ops int) {
	cpu := processCPU() - rc.timedCPU - rc.probeCPU
	rt := readRuntime()
	rc.out.Info["timed_wall_s"] = time.Since(rc.timedWall).Seconds()
	rc.probe()
	f := rc.hostFactor()
	rc.out.HostFactor = f
	if ops < 1 {
		ops = 1
	}
	rc.out.E2E["cpu_ms_per_op"] = ms(cpu) * f / float64(ops)
	alloc := sampleFloat(rt[0]) - sampleFloat(rc.timedRT[0])
	gcCPU := sampleFloat(rt[1]) - sampleFloat(rc.timedRT[1])
	totCPU := sampleFloat(rt[2]) - sampleFloat(rc.timedRT[2])
	rc.out.Layer["go.alloc_kb_per_op"] = alloc / 1024 / float64(ops)
	if totCPU > 0 {
		rc.out.Layer["go.gc_cpu_pct"] = 100 * gcCPU / totCPU
	}
	for _, p := range rc.out.RawPasses {
		rc.out.Passes = append(rc.out.Passes, p*f)
	}
	rc.mu.Lock()
	for i := range rc.opsMS {
		rc.opsMS[i] *= f
	}
	rc.out.Op = summarize(rc.opsMS)
	rc.out.E2E["op_p90_ms"] = metrics.Percentile(rc.opsMS, 90)
	rc.mu.Unlock()
	rc.out.E2E["op_p50_ms"] = rc.out.Op.Median
}

// pass closes one closed-loop pass started at t0 and probes the host
// speed after it.
func (rc *runCtx) pass(t0 time.Time) {
	rc.out.RawPasses = append(rc.out.RawPasses, time.Since(t0).Seconds())
	rc.probe()
}

// timeUp reports whether another pass, taking as long as the median
// pass so far, would overrun the measurement budget. At least one pass
// always runs.
func (rc *runCtx) timeUp() bool {
	if len(rc.out.RawPasses) == 0 {
		return false
	}
	next := time.Duration(median(rc.out.RawPasses) * float64(time.Second))
	return time.Since(rc.timedWall)+next > rc.seconds
}

// finishTrace folds a traced pass into the per-layer metrics: the
// self-time ledger, the tracing overhead against the untraced passes'
// median wall time, and the optional Chrome trace file.
func (rc *runCtx) finishTrace(spans []span, tracedWall, untracedWall float64) error {
	l := buildLedger(spans)
	rc.out.Ledger = &l
	for k, v := range l.shares() {
		rc.out.Layer[k] = v
	}
	rc.out.Layer["bench.unattributed_pct"] = l.UnattributedPc
	if untracedWall > 0 {
		rc.out.Layer["trace.overhead_pct"] = 100 * (tracedWall/untracedWall - 1)
	}
	rc.check(l.UnattributedPc <= 10, "traced pass leaves %.1f%% of root-span time unattributed (limit 10%%)", l.UnattributedPc)
	rc.check(len(l.Unknown) == 0, "spans with no layer metric: %v", l.Unknown)
	if rc.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(rc.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(rc.traceDir, rc.out.Workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChild runs one workload in this process and writes its childOut as
// JSON to stdout.
func runChild(w *workloadDef, rc *runCtx) error {
	if err := w.run(rc); err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	rc.out.SetupS = rc.out.SetupRawS * rc.hostFactor()
	return json.NewEncoder(os.Stdout).Encode(rc.out)
}

// runReport is one benchmark run of one workload, as the parent
// assembles it from its children.
type runReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	SetupS   []float64          `json:"setup_samples_s"`
	SetupRaw []float64          `json:"setup_raw_samples_s"`
	Metrics  map[string]float64 `json:"metrics"`
	Child    *childOut          `json:"child"`
}

// spawn runs this binary as a child for one workload and decodes its
// report; the child's peak resident set comes back from the kernel.
func spawn(ctx context.Context, mode, workload string, seed int64, seconds time.Duration, trace bool, traceDir string) (*childOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-child", mode, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds.Seconds(), 'f', -1, 64),
		"-trace", tr, "-trace-dir", traceDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child for %s: %w", mode, workload, err)
	}
	var co childOut
	if err := json.Unmarshal(stdout.Bytes(), &co); err != nil {
		return nil, 0, fmt.Errorf("%s child for %s: decode report: %w", mode, workload, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &co, rssMB, nil
}

// runWorkload performs one benchmark run: setupReps-1 set-up-only
// children, then the measuring child.
func runWorkload(ctx context.Context, w *workloadDef, seed int64, seconds time.Duration, trace bool, traceDir string) (*runReport, error) {
	rep := &runReport{Workload: w.Name, Seed: seed, Trace: trace, Metrics: map[string]float64{}}
	for i := 0; i < setupReps-1; i++ {
		co, _, err := spawn(ctx, "setup", w.Name, seed, seconds, false, "")
		if err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, co.SetupS)
		rep.SetupRaw = append(rep.SetupRaw, co.SetupRawS)
	}
	co, rssMB, err := spawn(ctx, "measure", w.Name, seed, seconds, trace, traceDir)
	if err != nil {
		return nil, err
	}
	rep.SetupS = append(rep.SetupS, co.SetupS)
	rep.SetupRaw = append(rep.SetupRaw, co.SetupRawS)
	rep.Child = co
	for k, v := range co.E2E {
		rep.Metrics[k] = v
	}
	for k, v := range co.Layer {
		rep.Metrics[k] = v
	}
	rep.Metrics["setup_s"] = median(rep.SetupS)
	rep.Metrics["mem_peak_mb"] = rssMB
	return rep, nil
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// addTo adds the report to the result line: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one. prefix names
// the workload when one line covers several.
func (r *runReport) addTo(line *resultLine, prefix string) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[prefix+d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	line.Attempted += r.Child.Attempted
	line.Failed += r.Child.Failed
	line.Correct = line.Correct && len(r.Child.Errors) == 0
}

// printReport writes the human-readable view of one run.
func printReport(r *runReport) {
	c := r.Child
	fmt.Printf("== %s seed=%d trace=%v: %d ops attempted, %d failed, %d passes\n",
		r.Workload, r.Seed, r.Trace, c.Attempted, c.Failed, len(c.Passes))
	fmt.Printf("   setup samples (s): %v\n", r.SetupS)
	for _, d := range endToEnd {
		fmt.Printf("   %-18s %12.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	tail := "no tail percentile (fewer than 100 samples)"
	if c.Op.TailP > 0 {
		tail = fmt.Sprintf("p%g %.3f ms", c.Op.TailP, c.Op.Tail)
	}
	fmt.Printf("   op latency: median %.3f ms, q1 %.3f, q3 %.3f, n=%d, %s\n", c.Op.Median, c.Op.Q1, c.Op.Q3, c.Op.N, tail)
	if len(c.Passes) > 0 {
		ps := summarize(c.Passes)
		fmt.Printf("   pass wall: median %.3f s, q1 %.3f, q3 %.3f, n=%d (raw median %.3f s)\n",
			ps.Median, ps.Q1, ps.Q3, ps.N, median(c.RawPasses))
	}
	fmt.Printf("   host factor %.3f from %d kernel runs (mean %.3f ms); raw set-up %.4f s\n",
		c.HostFactor, len(c.Probes), kernelRefMS/c.HostFactor, c.SetupRawS)
	keys := make([]string, 0, len(c.Info))
	for k := range c.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   info %-26s %.4f\n", k, c.Info[k])
	}
	for _, k := range sortedKeys(c.Digests) {
		fmt.Printf("   digest %-24s %s\n", k, c.Digests[k])
	}
	for _, k := range sortedKeys(c.Counts) {
		fmt.Printf("   count %-25s %d\n", k, c.Counts[k])
	}
	if r.Trace {
		for _, d := range perLayer {
			fmt.Printf("   %-28s %12.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
		}
	}
	if c.Ledger != nil {
		fmt.Printf("   ledger: root %.3f s, unattributed %.2f%%\n", c.Ledger.RootS, c.Ledger.UnattributedPc)
		rows := append([]ledgerRow(nil), c.Ledger.Rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
		for _, row := range rows {
			fmt.Printf("     %-20s %-26s %9.4f s %6.2f%%\n", row.Span, row.Metric, row.SelfS, row.Pct)
		}
	}
	for _, e := range c.OpErrors {
		fmt.Printf("   op error: %s\n", e)
	}
	for _, e := range c.Errors {
		fmt.Printf("   CHECK FAILED: %s\n", e)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
