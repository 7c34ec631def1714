package service

import (
	"context"
	"errors"
	"fmt"

	"uvllm/internal/core"
	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/llm"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// JobSpec is one verification job as submitted — over HTTP to cmd/uvllmd
// or assembled from flags by cmd/uvllm. Both front-ends build the same
// spec, validate it through the same Validate, and execute it through the
// same Execute, so a job means the same thing (and produces the same
// verdict) everywhere.
type JobSpec struct {
	// Module names the benchmark module supplying the specification,
	// reference model and clocking. Required.
	Module string `json:"module"`
	// Source, when set, is the DUT Verilog to verify (a submit-design
	// job). Empty means verify the module's golden source, or the
	// injected fault when Inject is set.
	Source string `json:"source,omitempty"`
	// Inject, when set, names a fault class to inject into the module (a
	// submit-repair job); Variant picks the instance.
	Inject string `json:"inject,omitempty"`
	// Variant is the fault variant index for Inject.
	Variant int `json:"variant,omitempty"`
	// Seed is the deterministic seed (0 = 1, the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// Mode is the repair generation form: "pair" (default) or "complete".
	Mode string `json:"mode,omitempty"`
	// Vectors is the UVM transactions per evaluation (0 = pipeline
	// default).
	Vectors int `json:"vectors,omitempty"`
	// MaxIterations is the repair-loop budget (0 = pipeline default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Tenant labels the submitter for fair scheduling; empty is the
	// anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Options carries the shared verification knobs.
	Options Options `json:"options"`
}

// Validate checks the spec without doing any pipeline work. It is the
// one validation path shared by the server (400 on failure) and the CLIs
// (usage error on failure).
func (s JobSpec) Validate() error {
	if s.Module == "" {
		return fmt.Errorf("module is required")
	}
	if dataset.ByName(s.Module) == nil {
		return fmt.Errorf("unknown module %q", s.Module)
	}
	if s.Source != "" && s.Inject != "" {
		return fmt.Errorf("source and inject are mutually exclusive")
	}
	if s.Variant < 0 {
		return fmt.Errorf("variant must be >= 0, got %d", s.Variant)
	}
	if s.Inject != "" {
		known := false
		for _, c := range faultgen.Classes() {
			if string(c) == s.Inject {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown fault class %q", s.Inject)
		}
	}
	if s.Mode != "" && s.Mode != "pair" && s.Mode != "complete" {
		return fmt.Errorf("mode must be %q or %q, got %q", "pair", "complete", s.Mode)
	}
	if s.Vectors < 0 || s.Vectors > MaxJobVectors {
		return fmt.Errorf("vectors must be in [0, %d], got %d", MaxJobVectors, s.Vectors)
	}
	if s.MaxIterations < 0 || s.MaxIterations > MaxJobIterations {
		return fmt.Errorf("max_iterations must be in [0, %d], got %d", MaxJobIterations, s.MaxIterations)
	}
	return s.Options.Validate()
}

// Upper bounds on a job's work knobs. Each UVM evaluation allocates its
// stimulus up front as vectors × inputs words, so an unbounded vector
// count lets one submit crash the whole server with an unrecoverable
// out-of-memory error.
const (
	MaxJobVectors    = 100000 // 200× the pipeline default of 500
	MaxJobIterations = 100    // 20× the pipeline default of 5
)

// Input is the resolved DUT of a validated spec: the source to verify,
// the golden it is measured against, and the oracle-knowledge fields.
type Input struct {
	// Source is the DUT as it enters the pipeline.
	Source string
	// Golden is the verified reference source.
	Golden string
	// Class is the fault class for the repair oracle's knowledge.
	Class string
	// FaultID identifies the benchmark instance ("<module>/cli" for
	// user-submitted sources).
	FaultID string
	// Descr is a human-readable description of what is being verified.
	Descr string
}

// Resolve materializes the spec's DUT: the raw module, the submitted
// source, or the injected fault variant. It assumes a validated spec and
// reports fault-expressibility errors (the one check that needs the
// generator to run).
func (s JobSpec) Resolve() (Input, error) {
	m := dataset.ByName(s.Module)
	if m == nil {
		return Input{}, fmt.Errorf("unknown module %q", s.Module)
	}
	in := Input{
		Source: m.Source, Golden: m.Source,
		Class: "FuncLogic", FaultID: m.Name + "/cli", Descr: "(user input)",
	}
	switch {
	case s.Source != "":
		in.Source = s.Source
	case s.Inject != "":
		fs := faultgen.Generate(m, faultgen.Class(s.Inject))
		if len(fs) == 0 {
			return Input{}, fmt.Errorf("class %s is not expressible on %s", s.Inject, m.Name)
		}
		if s.Variant >= len(fs) {
			return Input{}, fmt.Errorf("module %s has %d %s variants", m.Name, len(fs), s.Inject)
		}
		f := fs[s.Variant]
		in = Input{Source: f.Source, Golden: f.Golden, Class: string(f.Class), FaultID: f.ID, Descr: f.Descr}
	}
	return in, nil
}

// Services is the process-wide simulation state a job executes against:
// the compile cache, the golden-trace memo and the metrics registry. The
// zero value is not usable; resolve with DefaultServices or supply
// test-local instances.
type Services struct {
	// Cache is the content-addressed compile cache. ExecuteCtx runs each
	// job on its own scope of it (sim.Cache.Scope): the job shares the
	// cache's Programs, parses each source once, and keeps no parse past
	// its end.
	Cache *sim.Cache
	// Memo is the golden-trace memo.
	Memo *uvm.TraceMemo
	// Obs is the metrics registry jobs report into (solver-work
	// histograms, cancellation counters). nil disables metric recording
	// at the cost of one nil check per site — the CLI default; the
	// runner fills it in so the server always observes.
	Obs *obs.Registry
}

// DefaultServices returns the process-wide shared cache and memo — what
// both CLIs and the server use, so every front-end amortizes the same
// compiled state. The registry is left nil (metrics off) — the runner
// supplies one.
func DefaultServices() Services {
	return Services{Cache: sim.SharedCache(), Memo: uvm.SharedTraceMemo()}
}

// Result is the terminal outcome of one job. Every field is
// deterministic for a given (JobSpec, oracle profile): the load gate
// compares concurrently-served Results byte-for-byte against sequential
// execution.
type Result struct {
	// Success reports whether the final UVM testbench passed.
	Success bool `json:"success"`
	// Stage is the pipeline segment that produced the passing code.
	Stage string `json:"stage"`
	// Iterations is the number of repair iterations consumed.
	Iterations int `json:"iterations"`
	// PassRate is the best scoreboard pass rate reached (0..1).
	PassRate float64 `json:"pass_rate"`
	// FinalScore is the scoreboard pass rate of the delivered source.
	FinalScore float64 `json:"final_score"`
	// Coverage is the best port-level coverage percent.
	Coverage float64 `json:"coverage"`
	// StructCoverage is the best structural coverage percent (0 unless
	// the cover knob was on).
	StructCoverage float64 `json:"struct_coverage,omitempty"`
	// Formal is the proof outcome when the formal knob was on: "proved",
	// "refuted" or "unsupported". Empty when formal was off or the UVM
	// verdict already failed.
	Formal string `json:"formal,omitempty"`
	// FormalDetail is the human-readable proof summary or counterexample.
	FormalDetail string `json:"formal_detail,omitempty"`
	// Descr describes what was verified (the injected fault or "(user
	// input)").
	Descr string `json:"descr,omitempty"`
	// Times is the modeled execution-time split.
	Times core.StageTimes `json:"times"`
	// Usage is the LLM token accounting.
	Usage llm.Usage `json:"usage"`
	// Final is the delivered source.
	Final string `json:"final,omitempty"`
	// Cancelled reports the job's context was cancelled and the pipeline
	// stopped at an iteration boundary, or the proof stopped mid-check;
	// the other fields carry whatever progress was made.
	Cancelled bool `json:"cancelled,omitempty"`
	// Log is the pipeline log.
	Log []string `json:"log,omitempty"`
	// Error is set when the job could not run at all (bad spec caught
	// late, inexpressible fault class); the job lands in the failed
	// state.
	Error string `json:"error,omitempty"`
}

// Failed reports whether the job should land in the failed terminal
// state: it could not run, the testbench verdict is negative, or a
// requested proof was refuted — the same condition under which cmd/uvllm
// exits non-zero.
func (r Result) Failed() bool {
	return r.Error != "" || !r.Success || r.Formal == "refuted"
}

// Execute runs one job synchronously under a background context — the
// CLI entry point. See ExecuteCtx.
func Execute(spec JobSpec, svc Services, emit func(Event)) Result {
	return ExecuteCtx(context.Background(), spec, svc, emit)
}

// ExecuteCtx runs one job synchronously: fault injection or source
// intake, the full core.Verify pipeline, and the optional bounded
// equivalence proof, whose outcome is emitted as a formal event (emit
// may be nil). Cancelling ctx stops the repair loop at the next
// iteration boundary and the formal check within a few hundred solver
// conflicts, returning a Result with Cancelled set. A span carried by
// ctx (obs.ContextWith) roots the job's phase trace, and the trace is
// the job's progress report: the Runner derives its iteration events
// from the spans. ExecuteCtx is safe for concurrent use — all mutable
// state is job-local or behind the Services' own synchronization.
func ExecuteCtx(ctx context.Context, spec JobSpec, svc Services, emit func(Event)) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	setupSp := obs.FromContext(ctx).Child("setup")
	if err := spec.Validate(); err != nil {
		setupSp.End()
		return Result{Error: err.Error()}
	}
	m := dataset.ByName(spec.Module)
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	in, err := spec.Resolve()
	if err != nil {
		setupSp.End()
		return Result{Error: err.Error()}
	}

	genMode := llm.ModePair
	if spec.Mode == "complete" {
		genMode = llm.ModeComplete
	}
	client := llm.NewOracle(llm.Knowledge{
		FaultID: in.FaultID, Golden: in.Golden, Class: in.Class,
		Complexity: m.Complexity, IsFSM: m.IsFSM,
	}, llm.DefaultProfile(), seed)
	setupSp.End()

	svc.Cache = svc.Cache.Scope()
	opts := spec.Options.Core(core.Options{
		Seed: seed, Mode: genMode,
		UVMVectors:    spec.Vectors,
		MaxIterations: spec.MaxIterations,
		Cache:         svc.Cache, Memo: svc.Memo,
	})
	res := core.Verify(ctx, core.Input{
		Source: in.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name, Client: client, Opts: opts,
	})
	out := Result{
		Success: res.Success, Stage: string(res.FixedStage),
		Iterations: res.Iterations, PassRate: res.PassRate,
		FinalScore: res.FinalScore, Coverage: res.Coverage,
		StructCoverage: res.StructCoverage, Descr: in.Descr,
		Times: res.Times, Usage: res.Usage, Final: sharedFinal(res.Final, in),
		Cancelled: res.Cancelled, Log: res.Log,
	}

	if (spec.Options.Formal || spec.Options.Induction) && res.Success {
		var cancelled bool
		out.Formal, out.FormalDetail, cancelled = prove(ctx, res.Final, in.Golden, m, spec.Options.BMCDepth(), spec.Options.Induction, svc)
		out.Cancelled = out.Cancelled || cancelled
		if emit != nil {
			emit(Event{Kind: EventFormal, Formal: out.Formal, Message: out.FormalDetail})
		}
	}
	return out
}

// sharedFinal returns the delivered source as in.Golden or in.Source
// when it equals one of them, so a kept result shares their storage
// instead of holding its own copy: most repairs restore the golden, and
// a clean design is delivered unchanged.
func sharedFinal(final string, in Input) string {
	switch final {
	case in.Golden:
		return in.Golden
	case in.Source:
		return in.Source
	}
	return final
}

// prove checks the delivered source against the golden — the one formal
// gate, which cmd/uvllm and cmd/uvllmd both reach through ExecuteCtx:
// plain BMC, or k-induction when the induction knob is on (a closed
// inductive step upgrades the detail to "for all time"; the status
// strings stay the same three values either way). Designs outside the
// blastable subset report "unsupported": the simulation verdict stands
// alone. The check honours ctx down to a solve in flight, traces
// under the ctx span, and records per-call solver work into the
// registry's histograms; cancelled reports that the check stopped on
// ctx.
func prove(ctx context.Context, final, golden string, m *dataset.Module, depth int, induction bool, svc Services) (status, detail string, cancelled bool) {
	cache := svc.Cache
	sp := obs.FromContext(ctx).Child("formal")
	defer sp.End()
	g, err := cache.Compile(golden, m.Top, sim.BackendCompiled)
	if err != nil {
		return "unsupported", fmt.Sprintf("golden does not compile: %v", err), false
	}
	c, err := cache.Compile(final, m.Top, sim.BackendCompiled)
	if err != nil {
		return "refuted", fmt.Sprintf("delivered source does not compile: %v", err), false
	}
	fopts := formal.Options{Ctx: ctx, Span: sp}
	var res formal.EquivResult
	if induction {
		res, err = formal.InductionEquivOpts(g, c, m.Clock, depth, fopts)
	} else {
		res, err = formal.BMCEquivOpts(g, c, m.Clock, depth, fopts)
	}
	recordSolves(svc.Obs, res.Stats.Solves)
	if err != nil {
		return "unsupported", fmt.Sprintf("not checked: %v", err), errors.Is(err, formal.ErrCancelled)
	}
	if res.Equivalent {
		if res.Unbounded {
			return "proved", fmt.Sprintf("equivalent to golden for all time — k-induction closed at window %d (%d AIG nodes, %d conflicts)",
				res.Depth, res.Stats.AIGNodes, res.Stats.Conflicts()), false
		}
		return "proved", fmt.Sprintf("equivalent to golden for every stimulus up to %d cycles (%d AIG nodes, %d conflicts)",
			depth, res.Stats.AIGNodes, res.Stats.Conflicts()), false
	}
	div, cyc, rerr := formal.ReplayCex(golden, final, m.Top, m.Clock, res.Cex, sim.BackendCompiled)
	return "refuted", fmt.Sprintf("diverges from golden at post-reset cycle %d on %s (replay: diverged=%v at cycle %d, err=%v); stimulus: %v",
		res.Cex.Cycle, res.Cex.Signal, div, cyc, rerr, res.Cex.Inputs), false
}

// solverWorkBuckets bound the solver histograms: exponential, wide
// enough for the deep multiplier cones.
var (
	conflictBuckets    = obs.ExpBuckets(1, 4, 10)
	propagationBuckets = obs.ExpBuckets(16, 4, 10)
	restartBuckets     = obs.ExpBuckets(1, 2, 10)
)

// recordSolves folds one formal check's per-depth solver stats into the
// registry's solver-work histograms. No-op on a nil registry.
func recordSolves(reg *obs.Registry, solves []formal.SolveStats) {
	if reg == nil || len(solves) == 0 {
		return
	}
	conflicts := reg.Histogram("solver_conflicts", "SAT conflicts per solver call", conflictBuckets)
	props := reg.Histogram("solver_propagations", "SAT propagations per solver call", propagationBuckets)
	restarts := reg.Histogram("solver_restarts", "SAT restarts per solver call", restartBuckets)
	for _, s := range solves {
		conflicts.Observe(float64(s.Conflicts))
		props.Observe(float64(s.Propagations))
		restarts.Observe(float64(s.Restarts))
	}
}
