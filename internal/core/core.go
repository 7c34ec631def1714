// Package core implements the UVLLM framework pipeline of paper Fig. 2:
// pre-processing (Alg. 1), UVM processing, post-processing localization
// (Alg. 2) and the LLM repair stage, iterated under the score-register
// rollback mechanism until the DUT passes its UVM testbench or the
// iteration budget is exhausted.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"uvllm/internal/llm"
	"uvllm/internal/locate"
	"uvllm/internal/metrics"
	"uvllm/internal/obs"
	"uvllm/internal/preproc"
	"uvllm/internal/repair"
	"uvllm/internal/sim"
	"uvllm/internal/synth"
	"uvllm/internal/uvm"
)

// Stage identifies which pipeline segment produced the final fix — the
// accounting axis of paper Table II.
type Stage string

// Stages.
const (
	StageNone Stage = "none"
	StagePre  Stage = "pre-processing"
	StageMS   Stage = "repair-ms"
	StageSL   Stage = "repair-sl"
)

// Options tunes the pipeline.
type Options struct {
	MaxIterations   int         // UVM/repair loop budget; paper uses 5
	SLThreshold     int         // iteration at which SL mode engages (Alg. 2's TH)
	Mode            llm.GenMode // pair (default) or complete (Table III ablation)
	UVMVectors      int         // transactions per UVM run
	Seed            int64
	DisableRollback bool        // ablation: accept every candidate
	Backend         sim.Backend // simulation engine (zero value: compiled)
	// Cover enables structural coverage collection (statements, branches,
	// toggles, FSM occupancy) during every UVM evaluation of the job. Off,
	// it costs nothing.
	Cover bool

	// Cache is the compile cache every simulation of the job goes
	// through: the candidate of each repair iteration (and the final
	// re-evaluation, which replays a cached source) compiles once. The
	// job's lint gates and synthesis gate read their parses through it
	// too, so a job scope (sim.Cache.Scope, which the evaluation harness
	// and uvllmd open per job) parses each source once; Verify opens no
	// scope itself. nil gets a fresh per-job root cache.
	Cache *sim.Cache
	// Memo serves the scoreboard's golden traces; nil gets a fresh
	// per-job memo (the 5-iteration loop replays the same stimulus).
	Memo *uvm.TraceMemo
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 5
	}
	if o.SLThreshold == 0 {
		o.SLThreshold = 4
	}
	if o.UVMVectors == 0 {
		o.UVMVectors = 500
	}
	if o.Cache == nil {
		o.Cache = sim.NewCache()
	}
	if o.Memo == nil {
		o.Memo = uvm.NewTraceMemo()
	}
	return o
}

// Input is one verification job.
type Input struct {
	Source     string // the DUT as received
	Spec       string // design specification
	Top        string // top module name
	Clock      string // clock input ("" for combinational)
	RefName    string // reference model name
	ModuleName string
	Client     llm.Client
	Opts       Options
}

// StageTimes is the modeled execution-time split across pipeline segments.
type StageTimes struct {
	Pre float64
	MS  float64
	SL  float64
}

// Total is the end-to-end modeled execution time.
func (t StageTimes) Total() float64 { return t.Pre + t.MS + t.SL }

// Result is the pipeline outcome for one DUT.
type Result struct {
	Success    bool    // final UVM testbench passes (drives HR)
	PassRate   float64 // best scoreboard pass rate reached
	FinalScore float64 // scoreboard pass rate of the Final source
	FixedStage Stage   // segment whose repair produced the passing code
	Final      string  // final source
	Iterations int
	Times      StageTimes
	Usage      llm.Usage
	Coverage   float64 // best port-level (bin/toggle) coverage percent
	// StructCoverage is the best structural coverage percent observed
	// across evaluations; collected only when Options.Cover is set.
	StructCoverage float64
	// Cancelled reports that the caller's context was cancelled and the
	// repair loop stopped at an iteration boundary; the Result carries
	// whatever progress was made, but Success is necessarily false and
	// the final re-evaluation is skipped.
	Cancelled bool
	Log       []string
}

type evalResult struct {
	score float64
	log   string
	wave  *sim.Waveform
	cov   float64
	scov  float64 // structural coverage percent (0 when not collected)
	err   error
}

// Verify runs the full UVLLM pipeline on one DUT. Cancellation of ctx
// is honoured at iteration boundaries: the loop finishes the phase in
// flight, then returns with Result.Cancelled set. If ctx carries an
// obs.Span (obs.ContextWith), each pipeline phase is traced as a child
// span, and the spans are Verify's only progress report: "preprocess"
// closes when pre-processing is done, and each "iteration" span closes
// with that UVM evaluation's verdict as args (see endIteration). With
// no span in the context tracing costs one nil check per phase.
func Verify(ctx context.Context, in Input) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	opts := in.Opts.withDefaults()
	res := Result{Final: in.Source, FixedStage: StageNone}
	job := obs.FromContext(ctx)

	// Step 1: pre-processing (Alg. 1).
	preSp := job.Child("preprocess")
	preUsage := llm.Usage{}
	pres := preproc.Run(in.Source, in.Spec, in.ModuleName, in.Client, preproc.Options{Mode: opts.Mode, Cache: opts.Cache}, &preUsage)
	preSp.End()
	res.Usage.Calls += preUsage.Calls
	res.Usage.InputTokens += preUsage.InputTokens
	res.Usage.OutputTokens += preUsage.OutputTokens
	res.Times.Pre += defaultCost.Lint(pres.LintRuns) + llmTime(preUsage)
	res.Log = append(res.Log, pres.Log...)
	cur := pres.Source
	lastStage := StageNone
	if pres.Changed {
		lastStage = StagePre
	}

	reg := repair.ScoreRegister{Disabled: opts.DisableRollback}
	var lastPairs []llm.PatchPair
	var bestEval evalResult

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			res.Cancelled = true
			res.Log = append(res.Log, fmt.Sprintf("iter %d: cancelled before evaluation: %v", iter, ctx.Err()))
			res.Final = bestSource(reg, cur, opts)
			return res
		}
		res.Iterations = iter
		stage, llmStage := StageMS, llm.StageMS
		if iter >= opts.SLThreshold {
			stage, llmStage = StageSL, llm.StageSL
		}
		iterSp := job.Child("iteration")

		// Step 2: UVM processing.
		ev := evaluate(iterSp, cur, in, opts)
		res.Times.MS += defaultCost.Sim(opts.UVMVectors) // testing time accrues to the repair loop
		if ev.cov > res.Coverage {
			res.Coverage = ev.cov
		}
		if ev.scov > res.StructCoverage {
			res.StructCoverage = ev.scov
		}
		if ev.err != nil {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: simulation failed: %v", iter, ev.err))
		}
		if ev.score > res.PassRate {
			res.PassRate = ev.score
		}
		if ev.score == 1.0 {
			res.Success = true
			res.FixedStage = lastStage
			res.Final = cur
			res.FinalScore = 1.0
			endIteration(iterSp, iter, stage, ev, res.PassRate, false)
			return res
		}

		// Rollback check (Sec. III-C).
		next, accepted := reg.Offer(cur, ev.score, lastPairs)
		if accepted || reg.Disabled {
			bestEval = ev
		}
		endIteration(iterSp, iter, stage, ev, res.PassRate, !accepted)
		if !accepted {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: rollback (score %.2f < best %.2f)", iter, ev.score, reg.Best().Score))
			cur = next
			ev = bestEval
		}

		if iter == opts.MaxIterations {
			break
		}

		// Step 3: post-processing localization (Alg. 2).
		locSp := job.Child("locate")
		locSp.SetArg("iter", fmt.Sprintf("%d", iter))
		info := locate.ErrInfoFetch(cur, ev.log, ev.wave, iter, opts.SLThreshold)
		errText := info.Format(cur)
		if ev.err != nil {
			errText = "simulation error: " + ev.err.Error() + "\n" + errText
		}
		locSp.End()

		// Step 4: repair agent (Sec. III-D).
		req := llm.BuildRepairRequest(llm.RepairContext{
			ModuleName:    in.ModuleName,
			Spec:          in.Spec,
			Source:        cur,
			Stage:         llmStage,
			ErrorInfo:     errText,
			DamageRepairs: reg.Damage,
			Iteration:     iter,
			Mode:          opts.Mode,
		})
		llmSp := job.Child("llm")
		llmSp.SetArg("iter", fmt.Sprintf("%d", iter))
		resp, err := in.Client.Complete(req)
		llmSp.End()
		if err != nil {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: LLM error: %v", iter, err))
			continue
		}
		res.Usage.Add(resp)
		callTime := defaultCost.LLMCall(resp.InputTokens, resp.OutputTokens)
		if stage == StageSL {
			res.Times.SL += callTime
		} else {
			res.Times.MS += callTime
		}
		reply, err := llm.ParseRepairReply(resp.Content)
		if err != nil {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: unparseable reply: %v", iter, err))
			continue
		}
		cand, err := repair.ApplyReply(cur, reply, opts.Mode)
		if err != nil {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: %v", iter, err))
			continue
		}
		if cand == cur {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: no-op repair", iter))
			continue
		}

		// Synthesis check (paper Fig. 2: the repaired DUT "is then
		// synthesized as the stage output"): a patch that re-introduces
		// syntax errors is routed back through pre-processing (paper
		// Result 4: "new syntax issues ... addressed by the
		// pre-processor"), and a patch that breaks synthesizability
		// (combinational cycles, latches) is discarded outright.
		if rep := opts.Cache.Lint(cand); len(rep.Errors()) > 0 {
			fixUsage := llm.Usage{}
			p2 := preproc.Run(cand, in.Spec, in.ModuleName, in.Client, preproc.Options{Mode: opts.Mode, Cache: opts.Cache}, &fixUsage)
			res.Usage.Calls += fixUsage.Calls
			res.Usage.InputTokens += fixUsage.InputTokens
			res.Usage.OutputTokens += fixUsage.OutputTokens
			res.Times.Pre += defaultCost.Lint(p2.LintRuns) + llmTime(fixUsage)
			if !p2.Clean {
				res.Log = append(res.Log, fmt.Sprintf("iter %d: candidate unsalvageable, discarded", iter))
				continue
			}
			cand = p2.Source
		}
		if err := synthGate(opts.Cache, cand, in.Top); err != nil {
			res.Log = append(res.Log, fmt.Sprintf("iter %d: synthesis rejected candidate: %v", iter, err))
			continue
		}
		cur = cand
		lastStage = stage
		lastPairs = reply.Correct
	}

	res.Final = bestSource(reg, cur, opts)
	if ctx.Err() != nil {
		// Cancelled between the last iteration and the final
		// re-evaluation: deliver progress without spending more sim time.
		res.Cancelled = true
		return res
	}
	finSp := job.Child("final_eval")
	fe := evaluate(finSp, res.Final, in, opts)
	finSp.End()
	res.FinalScore = fe.score
	return res
}

// endIteration closes an iteration span with the iteration's verdict as
// args: iter and stage, the evaluation's score, coverage and
// struct_coverage, the job's best score so far and whether the score
// register rolled the candidate back. uvllmd turns the span into the
// job's iteration event, so every float is formatted to parse back
// bit-exact. Nothing is formatted when sp is nil.
func endIteration(sp *obs.Span, iter int, stage Stage, ev evalResult, best float64, rollback bool) {
	if sp == nil {
		return
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	sp.SetArg("iter", strconv.Itoa(iter))
	sp.SetArg("stage", string(stage))
	sp.SetArg("score", f(ev.score))
	sp.SetArg("best", f(best))
	sp.SetArg("coverage", f(ev.cov))
	sp.SetArg("struct_coverage", f(ev.scov))
	sp.SetArg("rollback", strconv.FormatBool(rollback))
	sp.End()
}

// bestSource is the source the pipeline delivers when it stops without
// a pass: the score register's best, unless rollback is disabled (then
// whatever the last iteration left behind).
func bestSource(reg repair.ScoreRegister, cur string, opts Options) string {
	best := reg.Best().Source
	if best == "" || opts.DisableRollback {
		return cur
	}
	return best
}

// synthGate runs the synthesis step on a candidate, reading its parse
// through the job's cache. Constructs outside the synthesizer's scope
// (hierarchy, memories) pass the gate — those designs are validated by
// simulation alone, as synth.ErrUnsupported errors are properties of the
// synthesizer, not of the candidate.
func synthGate(cache *sim.Cache, src, top string) error {
	f, errs := cache.Parse(src)
	if len(errs) > 0 {
		return fmt.Errorf("synth: %s", errs[0].Error())
	}
	if _, err := synth.Synthesize(f, top); err != nil && !errors.Is(err, synth.ErrUnsupported) {
		return err
	}
	return nil
}

// evaluate runs one UVM evaluation of src, tracing the compile and run
// phases as children of sp (a nil sp traces nothing).
func evaluate(sp *obs.Span, src string, in Input, opts Options) evalResult {
	cSp := sp.Child("uvm_compile")
	env, err := uvm.NewEnv(uvm.Config{
		Source: src, Top: in.Top, Clock: in.Clock, RefName: in.RefName, Seed: opts.Seed,
		Backend: opts.Backend, Cache: opts.Cache, Memo: opts.Memo, Cover: opts.Cover,
	})
	cSp.End()
	if err != nil {
		return evalResult{err: err, log: "UVM_FATAL @ 0: elaboration failed: " + err.Error()}
	}
	rSp := sp.Child("uvm_run")
	score := env.Run(uvm.NewRandomSequence(env.DUT.Sim.Design(), env.DUT.Clock, opts.UVMVectors))
	rSp.End()
	ev := evalResult{
		score: score,
		log:   env.Log(),
		wave:  env.Waveform(),
		cov:   env.Cov.Percent(),
		err:   env.Fatal(),
	}
	if m := env.StructCoverage(); m != nil {
		ev.scov = m.Percent()
	}
	return ev
}

// defaultCost models the wall-clock time of every pipeline step.
var defaultCost = metrics.DefaultCostModel()

// llmTime is the modeled time of the LLM calls counted in u.
func llmTime(u llm.Usage) float64 {
	c := defaultCost
	return float64(u.Calls)*c.LLMBaseSeconds +
		c.LLMPerKInputTok*float64(u.InputTokens)/1000 +
		c.LLMPerKOutputTok*float64(u.OutputTokens)/1000
}
