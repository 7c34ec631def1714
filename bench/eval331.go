package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"uvllm/internal/baseline"
	"uvllm/internal/core"
	"uvllm/internal/exp"
	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// evalWorkers is the worker count of the Table II run (the repository's
// `experiments -table2 -workers 2`).
const evalWorkers = 2

// headline is the EXPERIMENTS.md Table II headline at seed 1, as printed
// there (two decimals).
var headline = map[string]string{
	"Syntax FR": "87.79", "Functional FR": "72.33", "Overall FR": "80.36", "Speedup": "10.39",
}

// runEval331 is the researcher's Table II run: every timed pass
// evaluates all 331 instances with UVLLM and the four baselines, two
// workers, a fresh compile cache and trace memo, and oracle seed = the
// workload seed. One op is one instance, run through exp.Run so its
// latency is observable; exp.Run's own pool does the same per-instance
// work.
func runEval331(rc *runCtx) error {
	faults := faultgen.Benchmark()
	rc.check(len(faults) == faultgen.BenchmarkSize, "benchmark has %d instances, want %d", len(faults), faultgen.BenchmarkSize)
	faults = trim(rc, faults)
	if rc.ready() {
		return nil
	}
	var digest string
	var recs []*exp.Record
	var cfg exp.Config
	rc.startTimed()
	for p := 0; !rc.timeUp(); p++ {
		cfg = exp.Config{Seed: rc.seed, Workers: 1, Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}
		t0 := time.Now()
		recs = evalPass(faults, cfg, func(_ int, f *faultgen.Fault, cfg exp.Config) *exp.Record {
			cfg.Instances = []*faultgen.Fault{f}
			t := time.Now()
			r := exp.Run(cfg)[0]
			rc.op(time.Since(t), nil)
			return r
		})
		rc.pass(t0)
		d := recordsDigest(recs)
		if p == 0 {
			digest = d
		}
		rc.check(d == digest, "pass %d digest %s differs from pass 0 (%s)", p, d, digest)
	}
	rc.stopTimed(rc.out.Attempted)
	passMed := median(rc.out.Passes)
	rc.out.E2E["throughput_per_s"] = float64(len(faults)) / passMed
	rc.out.Digests["records"] = digest
	evalChecks(rc, recs)
	evalLayers(rc, recs, cfg.Cache, cfg.Memo)

	if !rc.trace {
		return nil
	}
	tcfg := exp.Config{Seed: rc.seed, Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}
	svc := baseline.SimServices{Cache: tcfg.Cache, Memo: tcfg.Memo}
	var tracers [evalWorkers]*obs.Tracer
	for w := range tracers {
		tracers[w] = obs.NewTracer("")
	}
	t0 := time.Now()
	trecs := evalPass(faults, tcfg, func(w int, f *faultgen.Fault, cfg exp.Config) *exp.Record {
		return tracedRecord(tracers[w], f, cfg, svc)
	})
	traced := time.Since(t0).Seconds()
	td := recordsDigest(trecs)
	rc.check(td == digest, "traced pass digest %s differs from the untraced exp.Run digest %s", td, digest)
	evalLayers(rc, trecs, tcfg.Cache, tcfg.Memo)
	var spans []span
	for w, tr := range tracers {
		spans = append(spans, fromObs(fmt.Sprintf("worker%d", w), tr.Spans())...)
	}
	return rc.finishTrace(spans, traced, median(rc.out.RawPasses))
}

// evalPass evaluates every instance on evalWorkers goroutines and
// returns the records in instance order; one gets its worker's index.
func evalPass(faults []*faultgen.Fault, cfg exp.Config, one func(int, *faultgen.Fault, exp.Config) *exp.Record) []*exp.Record {
	recs := make([]*exp.Record, len(faults))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < evalWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				recs[i] = one(w, faults[i], cfg)
			}
		}()
	}
	for i := range faults {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return recs
}

// tracedRecord evaluates one instance with the same public calls, in
// the same order, as exp.Run's per-instance body, wrapping each in a
// span. The records digest proves the two paths agree.
func tracedRecord(tr *obs.Tracer, f *faultgen.Fault, cfg exp.Config, svc baseline.SimServices) *exp.Record {
	m := f.Meta()
	root := tr.Start("instance")
	defer root.End()
	oracle := func() *llm.Oracle {
		return llm.NewOracle(llm.Knowledge{
			FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
			Complexity: m.Complexity, IsFSM: m.IsFSM,
		}, llm.DefaultProfile(), cfg.Seed)
	}
	expert := func(src string) bool {
		sp := root.Child("exp.expert_pass")
		defer sp.End()
		return exp.ExpertPass(src, m, svc)
	}
	repair := func(name string, fn func(*faultgen.Fault) baseline.Outcome) baseline.Outcome {
		sp := root.Child(name)
		defer sp.End()
		return fn(f)
	}

	rec := &exp.Record{Fault: f}
	sp := root.Child("core.verify")
	rec.UVLLM = core.Verify(obs.ContextWith(context.Background(), sp), core.Input{
		Source: f.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name, Client: oracle(),
		Opts: core.Options{Seed: cfg.Seed, Mode: cfg.Mode, Backend: cfg.Backend, Cache: svc.Cache, Memo: svc.Memo},
	})
	sp.End()
	rec.UVLLMFix = rec.UVLLM.Success && expert(rec.UVLLM.Final)

	meic := baseline.NewMEIC(oracle())
	meic.Sim = svc
	rec.MEIC = repair("baseline.meic", meic.Repair)
	rec.MEICFix = rec.MEIC.Hit && expert(rec.MEIC.Final)

	raw := baseline.NewRawLLM(oracle())
	raw.Sim = svc
	rec.Raw = repair("baseline.raw", raw.Repair)
	rec.RawFix = rec.Raw.Hit && expert(rec.Raw.Final)

	if !f.Class.IsSyntax() {
		strider := baseline.NewStrider()
		strider.Sim = svc
		so := repair("baseline.strider", strider.Repair)
		rec.Strider = &so
		rec.StriderFix = so.Hit && expert(so.Final)
		rtlr := baseline.NewRTLRepair()
		rtlr.Sim = svc
		ro := repair("baseline.rtlrepair", rtlr.Repair)
		rec.RTLRepair = &ro
		rec.RTLRepairFix = ro.Hit && expert(ro.Final)
	}
	return rec
}

// recordsDigest hashes every instance's ID, verdicts, iteration count,
// final-source hash and baseline outcomes.
//
// Token usage and the modeled times derived from it stay out. The
// scoreboard records a cycle's mismatching signals in map order, so the
// error text of a repair prompt can list them in either order and count
// one token more or less: at oracle seed 13, UVLLM's input tokens on
// adder_8bit/SynKeywordTypo-0 read 1316 or 1317 between identical
// passes, and MEIC's on priority_encoder/FuncCondition-1 move likewise.
// Verdicts, iterations and final sources do not depend on it.
func recordsDigest(recs []*exp.Record) string {
	h := sha256.New()
	for _, r := range recs {
		u := r.UVLLM
		fmt.Fprintf(h, "%s|%v|%s|%d|%x|%v|%v|%v|%v|%v\n",
			r.Fault.ID, u.Success, u.FixedStage, u.Iterations, sha256.Sum256([]byte(u.Final)),
			r.UVLLMFix,
			outcomeKey(&r.MEIC, r.MEICFix), outcomeKey(&r.Raw, r.RawFix),
			outcomeKey(r.Strider, r.StriderFix), outcomeKey(r.RTLRepair, r.RTLRepairFix))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func outcomeKey(o *baseline.Outcome, fix bool) string {
	if o == nil {
		return "-"
	}
	return fmt.Sprintf("%v/%v/%x", o.Hit, fix, sha256.Sum256([]byte(o.Final)))
}

// evalChecks gates a pass's records: at seed 1 over the full benchmark
// the Table II headline must match EXPERIMENTS.md exactly; at any seed
// the table must be complete and the fix counts are kept as exact
// counts.
func evalChecks(rc *runCtx, recs []*exp.Record) {
	got := map[string]float64{}
	for _, row := range exp.Table2(recs) {
		switch row.Group {
		case "Syntax":
			got["Syntax FR"] = row.FR
		case "Function":
			got["Functional FR"] = row.FR
		case "Overall":
			got["Overall FR"] = row.FR
			got["Speedup"] = row.Speedup
			rc.check(row.N == len(recs), "Table II overall row covers %d of %d instances", row.N, len(recs))
		}
	}
	for k, want := range headline {
		v := fmt.Sprintf("%.2f", got[k])
		rc.out.Info["table2 "+k] = got[k]
		rc.check(rc.seed != 1 || len(recs) != faultgen.BenchmarkSize || v == want,
			"seed 1 %s = %s, EXPERIMENTS.md headline says %s", k, v, want)
	}
	var uv, meic, raw, strider, rtlr int
	for _, r := range recs {
		uv += b2i(r.UVLLMFix)
		meic += b2i(r.MEICFix)
		raw += b2i(r.RawFix)
		strider += b2i(r.StriderFix)
		rtlr += b2i(r.RTLRepairFix)
	}
	rc.out.Counts["fixed.uvllm"] = uv
	rc.out.Counts["fixed.meic"] = meic
	rc.out.Counts["fixed.raw"] = raw
	rc.out.Counts["fixed.strider"] = strider
	rc.out.Counts["fixed.rtlrepair"] = rtlr
}

// evalLayers sets the core/llm/cache counts of one pass.
func evalLayers(rc *runCtx, recs []*exp.Record, cache *sim.Cache, memo *uvm.TraceMemo) {
	results := make([]core.Result, len(recs))
	for i, r := range recs {
		results[i] = r.UVLLM
	}
	coreLayers(rc, results)
	cacheLayers(rc, cache.Stats(), memo.Stats(), len(recs))
}

// coreLayers sets the per-op repair-loop and LLM counts.
func coreLayers(rc *runCtx, results []core.Result) {
	n := float64(max(len(results), 1))
	var iters, fixed, calls, in, out int
	var modeled float64
	for _, r := range results {
		iters += r.Iterations
		fixed += b2i(r.Success)
		calls += r.Usage.Calls
		in += r.Usage.InputTokens
		out += r.Usage.OutputTokens
		modeled += r.Times.Total()
	}
	rc.out.Layer["core.iterations_per_op"] = float64(iters) / n
	rc.out.Layer["core.fix_ratio"] = float64(fixed) / n
	rc.out.Layer["core.modeled_s_per_op"] = modeled / n
	rc.out.Layer["llm.calls_per_op"] = float64(calls) / n
	rc.out.Layer["llm.tokens_in_per_op"] = float64(in) / n
	rc.out.Layer["llm.tokens_out_per_op"] = float64(out) / n
}

// cacheLayers sets the compile-cache and trace-memo ratios over ops.
func cacheLayers(rc *runCtx, cs sim.CacheStats, ms uvm.TraceMemoStats, ops int) {
	rc.out.Layer["sim.cache.hit_ratio"] = ratio(cs.Hits, cs.Hits+cs.Misses)
	rc.out.Layer["sim.cache.misses_per_op"] = float64(cs.Misses) / float64(max(ops, 1))
	rc.out.Layer["uvm.memo.hit_ratio"] = ratio(ms.Hits, ms.Hits+ms.Misses)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
