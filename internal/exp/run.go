// Package exp is the evaluation harness: it runs UVLLM and every baseline
// over the 331-instance error benchmark and regenerates each figure and
// table of the paper's evaluation section (Figs. 5–7, Tables II–III).
package exp

import (
	"context"
	"runtime"
	"sync"

	"uvllm/internal/baseline"
	"uvllm/internal/core"
	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/memo"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// Record is the full evaluation of one benchmark instance.
type Record struct {
	Fault *faultgen.Fault

	UVLLM    core.Result
	UVLLMFix bool // expert-validated (FR numerator)

	MEIC    baseline.Outcome
	MEICFix bool

	Raw    baseline.Outcome
	RawFix bool

	// Template tools run on functional instances only (they cannot start
	// from syntax-broken code); nil otherwise.
	Strider      *baseline.Outcome
	StriderFix   bool
	RTLRepair    *baseline.Outcome
	RTLRepairFix bool
}

// Config selects what to run.
type Config struct {
	Seed            int64
	Mode            llm.GenMode
	SkipBaselines   bool
	DisableRollback bool
	SLThreshold     int               // 0 = default
	Instances       []*faultgen.Fault // nil = full benchmark
	Workers         int               // 0 = NumCPU
	Backend         sim.Backend       // simulation engine (zero value: compiled)

	// Cache is the compile cache shared by every simulation of the run —
	// UVLLM jobs, all four baselines and the expert validation — so the
	// 331 instances compile each of the 27 golden modules exactly once.
	// Each instance runs on its own scope of it (sim.Cache.Scope), which
	// parses each source the instance touches once and is dropped with
	// the instance. nil uses the process-wide sim.SharedCache.
	Cache *sim.Cache
	// Memo is the golden-trace memo shared the same way; nil uses the
	// process-wide uvm.SharedTraceMemo.
	Memo *uvm.TraceMemo
}

// services resolves the run's shared simulation bundle.
func (cfg Config) services() baseline.SimServices {
	svc := baseline.SimServices{Backend: cfg.Backend, Cache: cfg.Cache, Memo: cfg.Memo}
	if svc.Cache == nil {
		svc.Cache = sim.SharedCache()
	}
	if svc.Memo == nil {
		svc.Memo = uvm.SharedTraceMemo()
	}
	return svc
}

func oracleFor(f *faultgen.Fault, prof llm.Profile, seed int64) *llm.Oracle {
	m := f.Meta()
	return llm.NewOracle(llm.Knowledge{
		FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
		Complexity: m.Complexity, IsFSM: m.IsFSM,
	}, prof, seed)
}

// Run evaluates all configured instances, in parallel, deterministically.
func Run(cfg Config) []*Record {
	instances := cfg.Instances
	if instances == nil {
		instances = faultgen.Benchmark()
	}
	prof := llm.DefaultProfile()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	svc := cfg.services()
	// ExpertPass is a pure function of (module, candidate, backend), and
	// most repairs restore the golden, so the run validates each distinct
	// candidate once. The memo lives for this call only: a new Run starts
	// cold, like the fresh caches a caller may pass in. Its bound covers
	// the five validations an instance can make, so it never evicts.
	verdicts := memo.New[verdictKey, bool](5*len(instances) + 1)
	expert := func(src string, m *dataset.Module, svc baseline.SimServices) bool {
		ok, _ := verdicts.Do(verdictKey{m.Name, src}, func() (bool, error) {
			return ExpertPass(src, m, svc), nil
		})
		return ok
	}
	recs := make([]*Record, len(instances))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				recs[i] = runOne(instances[i], cfg, prof, svc, expert)
			}
		}()
	}
	for i := range instances {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return recs
}

// verdictKey identifies one ExpertPass verdict within a Run.
type verdictKey struct{ module, source string }

// runOne evaluates one instance on a job scope of the run's cache: every
// method and validation of the instance shares its parses, and they go
// when the instance is done.
func runOne(f *faultgen.Fault, cfg Config, prof llm.Profile, svc baseline.SimServices, expert func(string, *dataset.Module, baseline.SimServices) bool) *Record {
	m := f.Meta()
	rec := &Record{Fault: f}
	svc.Cache = svc.Cache.Scope()

	// UVLLM.
	rec.UVLLM = core.Verify(context.Background(), core.Input{
		Source: f.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name,
		Client: oracleFor(f, prof, cfg.Seed),
		Opts: core.Options{
			Seed: cfg.Seed, Mode: cfg.Mode,
			DisableRollback: cfg.DisableRollback,
			SLThreshold:     cfg.SLThreshold,
			Backend:         cfg.Backend,
			Cache:           svc.Cache,
			Memo:            svc.Memo,
		},
	})
	rec.UVLLMFix = rec.UVLLM.Success && expert(rec.UVLLM.Final, m, svc)

	if cfg.SkipBaselines {
		return rec
	}

	meic := baseline.NewMEIC(oracleFor(f, prof, cfg.Seed))
	meic.Sim = svc
	rec.MEIC = meic.Repair(f)
	rec.MEICFix = rec.MEIC.Hit && expert(rec.MEIC.Final, m, svc)

	raw := baseline.NewRawLLM(oracleFor(f, prof, cfg.Seed))
	raw.Sim = svc
	rec.Raw = raw.Repair(f)
	rec.RawFix = rec.Raw.Hit && expert(rec.Raw.Final, m, svc)

	if !f.Class.IsSyntax() {
		strider := baseline.NewStrider()
		strider.Sim = svc
		so := strider.Repair(f)
		rec.Strider = &so
		rec.StriderFix = so.Hit && expert(so.Final, m, svc)
		rtlr := baseline.NewRTLRepair()
		rtlr.Sim = svc
		ro := rtlr.Repair(f)
		rec.RTLRepair = &ro
		rec.RTLRepairFix = ro.Hit && expert(ro.Final, m, svc)
	}
	return rec
}

// groupOf maps a module to its Table II group.
func groupOf(f *faultgen.Fault) dataset.Category { return f.Meta().Category }
