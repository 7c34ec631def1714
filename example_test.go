package uvllm_test

// These examples are the former examples/quickstart and
// examples/benchmark_sweep programs, converted to testable Example
// functions: `go test` compiles them and diffs their output on every
// run, so they cannot silently rot, and pkg.go.dev renders them as the
// package's usage documentation.

import (
	"context"
	"fmt"
	"strings"

	"uvllm/internal/core"
	"uvllm/internal/dataset"
	"uvllm/internal/exp"
	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/llm"
	"uvllm/internal/sim"
)

// Example_quickstart injects a realistic human-style fault into a
// verified RTL module, then lets the UVLLM pipeline find and repair it.
func Example_quickstart() {
	// 1. Pick a verified benchmark module (an 8-bit accumulator).
	m := dataset.ByName("accu")

	// 2. Inject a logic error (paper Table I: operator/value/variable
	//    misuse) with the paradigm error generator.
	f := faultgen.Generate(m, faultgen.FuncLogic)[0]
	fmt.Printf("injected: %s\n", f.ID)

	// 3. The repair agent. Offline, the GPT-4-turbo stand-in is the
	//    calibrated oracle; with API access you would plug in any client
	//    implementing llm.Client here (the paper's modularity property).
	client := llm.NewOracle(llm.Knowledge{
		FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
		Complexity: m.Complexity, IsFSM: m.IsFSM,
	}, llm.DefaultProfile(), 3)

	// 4. Run the four-stage pipeline: pre-processing, UVM testing,
	//    localization, repair — iterating with rollback.
	res := core.Verify(context.Background(), core.Input{
		Source: f.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name, Client: client,
		Opts: core.Options{Seed: 3},
	})
	fmt.Printf("success=%v fixed-in=%s iterations=%d pass_rate=%.1f%%\n",
		res.Success, res.FixedStage, res.Iterations, res.PassRate*100)

	// 5. Show what changed.
	if res.Success {
		orig, patched, _ := llm.LineDiff(f.Source, res.Final)
		fmt.Printf("- %s\n+ %s\n", strings.TrimSpace(orig), strings.TrimSpace(patched))
	}

	// Output:
	// injected: accu/FuncLogic-0
	// success=true fixed-in=repair-ms iterations=2 pass_rate=100.0%
	// - sum <= sum - {8'd0, d};
	// + sum <= sum + {8'd0, d};
}

// Example_benchmarkSweep evaluates UVLLM and the MEIC baseline over a
// slice of the 331-instance error benchmark — the workload the paper's
// evaluation section is built on — and prints the aggregate fix counts.
func Example_benchmarkSweep() {
	// One instance of every fault class on the Control group modules.
	var subset []*faultgen.Fault
	seen := map[string]bool{}
	for _, f := range faultgen.Benchmark() {
		if f.Meta().Category != "Control" {
			continue
		}
		key := f.Module + "/" + string(f.Class)
		if seen[key] {
			continue
		}
		seen[key] = true
		subset = append(subset, f)
	}

	recs := exp.Run(exp.Config{Seed: 1, Instances: subset})

	uvllmFix, meicFix := 0, 0
	for _, r := range recs {
		if r.UVLLMFix {
			uvllmFix++
		}
		if r.MEICFix {
			meicFix++
		}
	}
	fmt.Printf("instances=%d\n", len(recs))
	fmt.Printf("UVLLM fixed %d, MEIC fixed %d\n", uvllmFix, meicFix)

	// Output:
	// instances=46
	// UVLLM fixed 35, MEIC fixed 22
}

// Example_formalEquivalence proves a repair correct instead of testing
// it: the formal engine bit-blasts a benchmark module and a hand-mutated
// copy, refutes their equivalence with a concrete counterexample, and —
// after the repair — proves the fixed source equivalent to the golden
// for every stimulus up to the unrolling depth. Simulation samples
// stimulus; the third oracle exhausts it.
func Example_formalEquivalence() {
	// The 12-bit counter, and a copy with a hand-planted deep bug: once
	// the count reaches 6 it skips to 8. No stimulus shorter than seven
	// enabled cycles can observe it — exactly the kind of fault a short
	// directed testbench misses.
	m := dataset.ByName("counter_12bit")
	buggy := strings.Replace(m.Source,
		"count <= count + 12'd1;",
		"count <= (count == 12'd6) ? 12'd8 : (count + 12'd1);", 1)

	golden, _ := sim.CompileSource(m.Source, m.Top, sim.BackendCompiled)
	mutant, _ := sim.CompileSource(buggy, m.Top, sim.BackendCompiled)

	// Bounded model check: unroll both transition relations from the
	// concrete reset state and ask the SAT solver for any distinguishing
	// stimulus. Four cycles cannot reach the bug; eight can.
	res, _ := formal.BMCEquivOpts(golden, mutant, m.Clock, 4, formal.Options{})
	fmt.Printf("buggy vs golden, depth 4: equivalent=%v\n", res.Equivalent)
	res, _ = formal.BMCEquivOpts(golden, mutant, m.Clock, 8, formal.Options{})
	fmt.Printf("buggy vs golden, depth 8: equivalent=%v, counterexample at cycle %d on %q\n",
		res.Equivalent, res.Cex.Cycle, res.Cex.Signal)

	// Every refutation must replay in concrete simulation — the bridge
	// from the SAT model back into the testbench world (the same vectors
	// convert to a uvm sequence via &uvm.DirectedSequence{Vectors:
	// res.Cex.Vectors()}).
	div, cyc, _ := formal.ReplayCex(m.Source, buggy, m.Top, m.Clock, res.Cex, sim.BackendCompiled)
	fmt.Printf("replayed in simulation: diverged=%v at cycle %d\n", div, cyc)

	// The repair (written differently from the golden — an equivalence,
	// not an identity): now the engine returns a *proof*, not a sample.
	fixed := strings.Replace(buggy,
		"count <= (count == 12'd6) ? 12'd8 : (count + 12'd1);",
		"count <= (count + 12'd2) - 12'd1;", 1)
	repaired, _ := sim.CompileSource(fixed, m.Top, sim.BackendCompiled)
	res, _ = formal.BMCEquivOpts(golden, repaired, m.Clock, 8, formal.Options{})
	fmt.Printf("repaired vs golden, depth 8: equivalent=%v (real CDCL search: %v)\n",
		res.Equivalent, res.Stats.Conflicts() > 0)

	// Output:
	// buggy vs golden, depth 4: equivalent=true
	// buggy vs golden, depth 8: equivalent=false, counterexample at cycle 6 on "count"
	// replayed in simulation: diverged=true at cycle 6
	// repaired vs golden, depth 8: equivalent=true (real CDCL search: true)
}
