package main

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload on an untraced run. Each workload defines what one "op" is
// (README.md): an evaluated instance, a served job, an equivalence check
// or a screened call.
//
// Each bound is meant to be three times the metric's worst run-to-run
// spread over the workloads, within the benchmark format's 25% cap. On
// the reference machine three times the worst spread exceeds the cap for
// every metric (README.md lists the spreads), so every bound sits at the
// cap less a point. Set-up time keeps the strictly largest bound, so work
// moved into set-up shows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.24},
	{"op_p50_ms", "ms", "lower", 0.24},
	{"op_p90_ms", "ms", "lower", 0.24},
	{"cpu_ms_per_op", "ms", "lower", 0.24},
	{"throughput_per_s", "1/s", "higher", 0.24},
}

// Per-layer metrics, printed by every workload on a traced run. Time
// metrics are self-time shares (percent of the workload's root-span time)
// so the ledger of one workload sums to 100%; a layer off the workload's
// path reads 0. Counts are per op.
var perLayer = []metricDef{
	// service: the uvllmd job path, client-timed around the HTTP API.
	{"service.http_pct", "%", "lower", 0},
	{"service.queue_wait_pct", "%", "lower", 0},
	{"service.setup_pct", "%", "lower", 0},
	{"service.formal_pct", "%", "lower", 0},
	{"service.loadgen_pct", "%", "lower", 0},
	{"service.backlog_max", "count", "lower", 0},
	// core: the repair loop; unspanned is repair apply + lint + synth gate.
	{"core.preprocess_pct", "%", "lower", 0},
	{"core.iteration_pct", "%", "lower", 0},
	{"core.unspanned_pct", "%", "lower", 0},
	{"core.final_eval_pct", "%", "lower", 0},
	{"core.iterations_per_op", "count/op", "lower", 0},
	{"core.fix_ratio", "ratio", "higher", 0},
	{"core.modeled_s_per_op", "model-s/op", "lower", 0},
	// uvm + sim
	{"uvm.compile_pct", "%", "lower", 0},
	{"uvm.run_pct", "%", "lower", 0},
	{"sim.cache.hit_ratio", "ratio", "higher", 0},
	{"sim.cache.misses_per_op", "count/op", "lower", 0},
	{"uvm.memo.hit_ratio", "ratio", "higher", 0},
	// locate, llm
	{"locate_pct", "%", "lower", 0},
	{"llm_pct", "%", "lower", 0},
	{"llm.calls_per_op", "count/op", "lower", 0},
	{"llm.tokens_in_per_op", "count/op", "lower", 0},
	{"llm.tokens_out_per_op", "count/op", "lower", 0},
	// exp, baseline
	{"exp.expert_pass_pct", "%", "lower", 0},
	{"baseline.meic_pct", "%", "lower", 0},
	{"baseline.raw_pct", "%", "lower", 0},
	{"baseline.strider_pct", "%", "lower", 0},
	{"baseline.rtlrepair_pct", "%", "lower", 0},
	// formal
	{"formal.unroll_pct", "%", "lower", 0},
	{"formal.blast_pct", "%", "lower", 0},
	{"formal.bmc_depth_pct", "%", "lower", 0},
	{"formal.induct_base_pct", "%", "lower", 0},
	{"formal.induct_step_pct", "%", "lower", 0},
	{"formal.sat_time_pct", "%", "lower", 0},
	{"formal.unsat_time_pct", "%", "lower", 0},
	{"formal.conflicts_per_op", "count/op", "lower", 0},
	{"formal.propagations_per_op", "count/op", "lower", 0},
	{"formal.solves_per_op", "count/op", "lower", 0},
	{"formal.aig_nodes_per_op", "count/op", "lower", 0},
	{"formal.unbounded_ratio", "ratio", "higher", 0},
	{"formal.budget_ratio", "ratio", "lower", 0},
	// psim, sim.Batch, uvm directed stimulus
	{"psim.classify_pct", "%", "lower", 0},
	{"psim.gate_ops_per_op", "count/op", "lower", 0},
	{"psim.supported_ratio", "ratio", "higher", 0},
	{"batch.observe_pct", "%", "lower", 0},
	{"uvm.directed_batch_pct", "%", "lower", 0},
	{"uvm.directed_bit_pct", "%", "lower", 0},
	{"lane.cycles_per_s", "1/s", "higher", 0},
	// Go runtime, over the untraced timed phase
	{"go.alloc_kb_per_op", "KB/op", "lower", 0},
	{"go.gc_cpu_pct", "%", "lower", 0},
	// the benchmark's own accounting
	{"bench.unattributed_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// spanMetric maps a span name to the per-layer share metric its self
// time accrues to. Spans named here come from three sources: the
// pipeline's own tracer (core, formal, service), the benchmark's spans
// around each public call it makes, and intervals the load generator
// timestamps around the HTTP API. The benchmark's root spans (rootSpans)
// accrue to bench.unattributed_pct.
var spanMetric = map[string]string{
	// uvllmd request decomposition (load generator intervals)
	"http.submit":        "service.http_pct",
	"http.fetch":         "service.http_pct",
	"service.queue_wait": "service.queue_wait_pct",
	"loadgen.late":       "service.loadgen_pct",
	"loadgen.wait":       "service.loadgen_pct",
	// service spans
	"setup":  "service.setup_pct",
	"formal": "service.formal_pct",
	"job":    "core.unspanned_pct", // ExecuteCtx outside its phase spans
	// core spans
	"core.verify": "core.unspanned_pct",
	"preprocess":  "core.preprocess_pct",
	"iteration":   "core.iteration_pct",
	"final_eval":  "core.final_eval_pct",
	"uvm_compile": "uvm.compile_pct",
	"uvm_run":     "uvm.run_pct",
	"locate":      "locate_pct",
	"llm":         "llm_pct",
	// exp and baselines (benchmark spans)
	"exp.expert_pass":    "exp.expert_pass_pct",
	"baseline.meic":      "baseline.meic_pct",
	"baseline.raw":       "baseline.raw_pct",
	"baseline.strider":   "baseline.strider_pct",
	"baseline.rtlrepair": "baseline.rtlrepair_pct",
	// formal
	"formal.induction": "formal.unroll_pct",
	"blast":            "formal.blast_pct",
	"bmc_depth":        "formal.bmc_depth_pct",
	"induct_base":      "formal.induct_base_pct",
	"induct_step":      "formal.induct_step_pct",
	// lane engines (benchmark spans)
	"psim.classify":      "psim.classify_pct",
	"batch.observe":      "batch.observe_pct",
	"uvm.directed_batch": "uvm.directed_batch_pct",
	"uvm.directed_bit":   "uvm.directed_bit_pct",
}

// rootSpans are the benchmark's per-op root spans; their self time is
// time no layer span covers.
var rootSpans = map[string]bool{"instance": true, "request": true, "check": true, "screen": true}

// workloadDef names a workload and says why the benchmark has it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) error
}

// workloads lists every workload in the order -workload all runs them.
var workloads = []workloadDef{
	{"eval331", "closed loop, 2 workers: the 331-instance Table II run; core repair loop, baselines, miss-heavy compile cache", runEval331},
	{"uvllmd_open", "open-loop Poisson jobs at 30/s, then closed-loop capacity, over HTTP to a warm uvllmd server; hit-heavy compile cache", runUvllmd},
	{"formal_mix", "closed loop: k-induction equivalence over the 173 dataset (golden, functional mutant) pairs; SAT refutations and UNSAT proofs", runFormalMix},
	{"lane_screen", "closed loop: bit-parallel and batched lane fault screens plus directed stimulus; the only psim/sim.Batch user", runLaneScreen},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
