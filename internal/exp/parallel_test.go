package exp

// Concurrency guards for the evaluation harness: the worker pool plus the
// compiled simulation backend run under `go test -race` in CI, and the
// paper's tables depend on Run being bitwise reproducible regardless of
// the worker count.

import (
	"reflect"
	"runtime"
	"testing"

	"uvllm/internal/baseline"
	"uvllm/internal/faultgen"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// TestRunParallelSmall exercises the parallel worker pool on a small
// instance slice with the default compiled backend — a race-detector
// target for the shared compiled-program state and the records slice.
func TestRunParallelSmall(t *testing.T) {
	instances := faultgen.Benchmark()
	if len(instances) > 4 {
		instances = instances[:4]
	}
	recs := Run(Config{Seed: 3, Workers: 4, SkipBaselines: true, Instances: instances})
	if len(recs) != len(instances) {
		t.Fatalf("got %d records, want %d", len(recs), len(instances))
	}
	for i, r := range recs {
		if r == nil {
			t.Fatalf("record %d missing", i)
		}
		if r.Fault != instances[i] {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// TestRunDeterministicAcrossWorkers asserts that a serial run and a fully
// parallel run of the same configuration produce identical Record values
// (UVLLM results, baseline outcomes, modeled times, logs — everything).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	instances := faultgen.Benchmark()
	if len(instances) > 3 {
		instances = instances[:3]
	}
	cfg := Config{Seed: 7, Instances: instances}
	cfg.Workers = 1
	serial := Run(cfg)
	cfg.Workers = runtime.NumCPU()
	parallel := Run(cfg)
	if len(serial) != len(parallel) {
		t.Fatalf("record counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("instance %s: records differ between Workers=1 and Workers=%d",
				serial[i].Fault.ID, runtime.NumCPU())
		}
	}
}

// TestRunExpertVerdictsMatchDirect checks Run's per-run verdict memo:
// over every instance of two modules, each record's Fix flag equals the
// method's own verdict (Success for UVLLM, Hit for the baselines) and a
// direct ExpertPass on its final source, with one worker and with four.
func TestRunExpertVerdictsMatchDirect(t *testing.T) {
	byModule := faultgen.BenchmarkByModule()
	instances := append(byModule["adder_8bit"], byModule["counter_12bit"]...)
	for _, workers := range []int{1, 4} {
		svc := baseline.SimServices{Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}
		recs := Run(Config{Seed: 1, Workers: workers, Instances: instances, Cache: svc.Cache, Memo: svc.Memo})
		fixes := 0
		for _, r := range recs {
			m := r.Fault.Meta()
			check := func(method string, fix, ok bool, final string) {
				want := ok && ExpertPass(final, m, svc)
				if fix != want {
					t.Errorf("workers %d, %s, %s: Fix = %v, direct ExpertPass says %v", workers, r.Fault.ID, method, fix, want)
				}
				if fix {
					fixes++
				}
			}
			check("UVLLM", r.UVLLMFix, r.UVLLM.Success, r.UVLLM.Final)
			check("MEIC", r.MEICFix, r.MEIC.Hit, r.MEIC.Final)
			check("Raw", r.RawFix, r.Raw.Hit, r.Raw.Final)
			if r.Strider != nil {
				check("Strider", r.StriderFix, r.Strider.Hit, r.Strider.Final)
				check("RTLRepair", r.RTLRepairFix, r.RTLRepair.Hit, r.RTLRepair.Final)
			}
		}
		if fixes == 0 {
			t.Fatalf("workers %d: no validated fix among %d instances; the check compared nothing", workers, len(instances))
		}
	}
}

// TestRunBackendsAgreeOnOutcomes asserts the evaluation harness reaches
// the same verdicts on both simulation backends (the pipeline consumes
// only port-level observations, which the differential suite pins down to
// bit equality).
func TestRunBackendsAgreeOnOutcomes(t *testing.T) {
	instances := faultgen.Benchmark()
	if len(instances) > 3 {
		instances = instances[:3]
	}
	compiled := Run(Config{Seed: 5, Instances: instances, SkipBaselines: true, Backend: sim.BackendCompiled})
	event := Run(Config{Seed: 5, Instances: instances, SkipBaselines: true, Backend: sim.BackendEventDriven})
	for i := range compiled {
		c, e := compiled[i], event[i]
		if c.UVLLM.Success != e.UVLLM.Success ||
			c.UVLLM.PassRate != e.UVLLM.PassRate ||
			c.UVLLM.Iterations != e.UVLLM.Iterations ||
			c.UVLLM.Final != e.UVLLM.Final ||
			c.UVLLMFix != e.UVLLMFix {
			t.Errorf("instance %s: backends disagree (compiled success=%v rate=%v iters=%d; event success=%v rate=%v iters=%d)",
				c.Fault.ID, c.UVLLM.Success, c.UVLLM.PassRate, c.UVLLM.Iterations,
				e.UVLLM.Success, e.UVLLM.PassRate, e.UVLLM.Iterations)
		}
	}
}
