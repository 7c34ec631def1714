package uvllm

import (
	"runtime"
	"sync"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/exp"
	"uvllm/internal/faultgen"
	"uvllm/internal/service"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// TestSharedFaultsReadOnly pins the read-only contract of the faults
// faultgen.Generate shares between callers. It copies every fault of
// every dataset cell and of the benchmark, then runs their readers at
// once — inject jobs through service.Execute, exp.Run with the
// baselines, faultgen.Benchmark, and a goroutine re-reading every
// field — and fails on any changed field. Under -race it also reports
// an unsynchronized write while it happens.
func TestSharedFaultsReadOnly(t *testing.T) {
	type snapshot struct {
		faults []*faultgen.Fault
		want   []faultgen.Fault
	}
	take := func(fs []*faultgen.Fault) snapshot {
		s := snapshot{faults: fs, want: make([]faultgen.Fault, len(fs))}
		for i, f := range fs {
			s.want[i] = *f
		}
		return s
	}
	var shots []snapshot
	for _, m := range dataset.All() {
		for _, c := range faultgen.Classes() {
			shots = append(shots, take(faultgen.Generate(m, c)))
		}
	}
	bench := faultgen.Benchmark()
	shots = append(shots, take(bench))
	changed := func() *faultgen.Fault {
		for _, s := range shots {
			for i, f := range s.faults {
				if *f != s.want[i] {
					return f
				}
			}
		}
		return nil
	}

	stop := make(chan struct{})
	readerDone := make(chan *faultgen.Fault, 1)
	go func() {
		for {
			if f := changed(); f != nil {
				readerDone <- f
				return
			}
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var instances []*faultgen.Fault
	for _, f := range bench {
		if f.Module == "adder_8bit" || f.Module == "counter_12bit" {
			instances = append(instances, f)
		}
	}
	var wg sync.WaitGroup
	for _, spec := range []service.JobSpec{
		{Module: "adder_8bit", Inject: string(faultgen.FuncLogic)},
		{Module: "counter_12bit", Inject: string(faultgen.FuncCondition)},
		{Module: "alu", Inject: string(faultgen.SynMissingSemi)},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := service.Execute(spec, service.Services{Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()}, nil)
			if res.Error != "" {
				t.Errorf("%s/%s: %s", spec.Module, spec.Inject, res.Error)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		exp.Run(exp.Config{Seed: 1, Workers: 2, Instances: instances[:min(len(instances), 6)], Cache: sim.NewCache(), Memo: uvm.NewTraceMemo()})
	}()
	go func() {
		defer wg.Done()
		if got := faultgen.Benchmark(); len(got) != len(bench) {
			t.Errorf("Benchmark returned %d faults, then %d", len(bench), len(got))
		}
	}()
	wg.Wait()
	close(stop)
	if f := <-readerDone; f != nil {
		t.Fatalf("shared fault %s was modified by a caller", f.ID)
	}
	if f := changed(); f != nil {
		t.Fatalf("shared fault %s was modified by a caller", f.ID)
	}
}
