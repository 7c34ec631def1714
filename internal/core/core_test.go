package core

import (
	"context"
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// verifyFault runs the pipeline on one injected fault with the oracle as
// the LLM.
func verifyFault(t *testing.T, f *faultgen.Fault, seed int64, opts Options) Result {
	t.Helper()
	m := f.Meta()
	oracle := llm.NewOracle(llm.Knowledge{
		FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
		Complexity: m.Complexity, IsFSM: m.IsFSM,
	}, llm.DefaultProfile(), seed)
	opts.Seed = seed
	return Verify(context.Background(), Input{
		Source: f.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name, Client: oracle, Opts: opts,
	})
}

func pickFault(t *testing.T, module string, class faultgen.Class) *faultgen.Fault {
	t.Helper()
	m := dataset.ByName(module)
	fs := faultgen.Generate(m, class)
	if len(fs) == 0 {
		t.Fatalf("no %s fault for %s", class, module)
	}
	return fs[0]
}

// expertPass is the independent validation used in these tests: a fresh
// UVM environment with a different seed and more vectors.
func expertPass(t *testing.T, source, module string) bool {
	t.Helper()
	m := dataset.ByName(module)
	env, err := uvm.NewEnv(uvm.Config{
		Source: source, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: 999,
	})
	if err != nil {
		return false
	}
	return env.Run(uvm.NewRandomSequence(env.DUT.Sim.Design(), env.DUT.Clock, 600)) == 1.0
}

func TestVerifyFixesFunctionalFault(t *testing.T) {
	f := pickFault(t, "counter_12bit", faultgen.FuncLogic)
	fixed := false
	for seed := int64(1); seed <= 12 && !fixed; seed++ {
		res := verifyFault(t, f, seed, Options{})
		if !res.Success {
			continue
		}
		fixed = true
		if res.FixedStage != StageMS && res.FixedStage != StageSL {
			t.Errorf("functional fault fixed in stage %s", res.FixedStage)
		}
		if !expertPass(t, res.Final, f.Module) {
			t.Errorf("repair overfits: fails expert validation\n%s", res.Final)
		}
		if res.Times.Total() <= 0 {
			t.Error("no execution time modeled")
		}
		if res.Usage.Calls == 0 {
			t.Error("no LLM usage recorded for a functional repair")
		}
	}
	if !fixed {
		t.Fatal("no seed fixed an easy counter fault in 12 tries; pipeline broken")
	}
}

func TestVerifyFixesSyntaxFaultInPreproc(t *testing.T) {
	f := pickFault(t, "adder_8bit", faultgen.SynKeywordTypo)
	fixed := false
	for seed := int64(1); seed <= 12 && !fixed; seed++ {
		res := verifyFault(t, f, seed, Options{})
		if res.Success && res.FixedStage == StagePre {
			fixed = true
			if !expertPass(t, res.Final, f.Module) {
				t.Error("preproc repair fails expert validation")
			}
			if res.Times.Pre <= 0 {
				t.Error("preprocessing time not attributed")
			}
		}
	}
	if !fixed {
		t.Fatal("no seed fixed a keyword typo in pre-processing; Alg. 1 path broken")
	}
}

func TestVerifyTemplateFixesSensitivityWithoutLLM(t *testing.T) {
	m := dataset.ByName("edge_detector")
	var fault *faultgen.Fault
	for _, f := range faultgen.Generate(m, faultgen.FuncCondition) {
		if strings.Contains(f.Descr, "negedge rst_n") {
			fault = f
		}
	}
	if fault == nil {
		t.Fatal("no sensitivity fault generated")
	}
	res := verifyFault(t, fault, 3, Options{})
	if !res.Success {
		t.Fatalf("sensitivity fault not fixed: %v", res.Log)
	}
	if res.FixedStage != StagePre {
		t.Errorf("fixed in %s, want pre-processing (script template)", res.FixedStage)
	}
	if res.Usage.Calls != 0 {
		t.Errorf("template fix consumed %d LLM calls, want 0", res.Usage.Calls)
	}
	if !expertPass(t, res.Final, fault.Module) {
		t.Error("template repair fails expert validation")
	}
}

func TestVerifyUnfixableExhaustsIterations(t *testing.T) {
	// An FSM functional fault at an unsolvable seed must run the full
	// budget, keep the best version via rollback, and report failure.
	m := dataset.ByName("seq_detector")
	fs := faultgen.Generate(m, faultgen.FuncLogic)
	if len(fs) == 0 {
		t.Skip("no FSM logic faults")
	}
	f := fs[0]
	for seed := int64(1); seed <= 25; seed++ {
		res := verifyFault(t, f, seed, Options{})
		if res.Success {
			continue
		}
		if res.Iterations != 5 {
			t.Errorf("iterations = %d, want 5 (full budget)", res.Iterations)
		}
		if res.Final == "" {
			t.Error("no final source on failure")
		}
		if res.PassRate >= 1.0 {
			t.Error("failure with pass rate 1.0 is contradictory")
		}
		return
	}
	t.Skip("all 25 seeds solved the FSM fault (profile very generous); acceptable")
}

func TestVerifyRollbackRecordsDamage(t *testing.T) {
	// Across seeds, at least one run of a hard fault must trigger a
	// rollback (hallucinated patch lowered the score).
	m := dataset.ByName("vending_machine")
	fs := faultgen.Generate(m, faultgen.FuncLogic)
	if len(fs) == 0 {
		t.Skip("no faults")
	}
	for seed := int64(1); seed <= 30; seed++ {
		res := verifyFault(t, fs[0], seed, Options{})
		for _, line := range res.Log {
			if strings.Contains(line, "rollback") {
				return // observed
			}
		}
	}
	t.Error("no rollback observed across 30 seeds; damage-repair path never exercised")
}

func TestVerifyCleanDUTPassesImmediately(t *testing.T) {
	m := dataset.ByName("mux4")
	oracle := llm.NewOracle(llm.Knowledge{
		FaultID: "clean", Golden: m.Source, Class: "FuncLogic", Complexity: 1,
	}, llm.DefaultProfile(), 1)
	res := Verify(context.Background(), Input{
		Source: m.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name, Client: oracle,
	})
	if !res.Success {
		t.Fatalf("clean DUT failed: %v", res.Log)
	}
	if res.FixedStage != StageNone {
		t.Errorf("clean DUT attributed to stage %s", res.FixedStage)
	}
	if res.Usage.Calls != 0 {
		t.Errorf("clean DUT consumed %d LLM calls", res.Usage.Calls)
	}
	if res.Coverage <= 0 {
		t.Error("coverage not collected")
	}
}

func TestVerifyCompleteMode(t *testing.T) {
	f := pickFault(t, "gray_code", faultgen.FuncLogic)
	fixed := false
	for seed := int64(1); seed <= 15 && !fixed; seed++ {
		res := verifyFault(t, f, seed, Options{Mode: llm.ModeComplete})
		if res.Success {
			fixed = true
			if !expertPass(t, res.Final, f.Module) {
				t.Error("complete-mode repair fails expert validation")
			}
		}
	}
	if !fixed {
		t.Fatal("complete mode never fixed an easy fault")
	}
}

func TestVerifySLModeEngages(t *testing.T) {
	// With SLThreshold=1, the first repair already uses suspicious lines.
	f := pickFault(t, "accu", faultgen.FuncLogic)
	res := verifyFault(t, f, 2, Options{SLThreshold: 1, MaxIterations: 3})
	usedSL := res.Times.SL > 0
	if !usedSL {
		t.Errorf("SL stage never engaged: times=%+v log=%v", res.Times, res.Log)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIterations != 5 || o.SLThreshold != 4 || o.UVMVectors != 500 {
		t.Errorf("defaults wrong: %+v", o)
	}
}

// TestSynthGateDecidesByErrorKind: the synthesis gate passes only
// constructs outside the synthesizer's subset (synth.ErrUnsupported),
// whatever the candidate's signals are called. A latch and an
// unresolvable range are defects of the candidate and are rejected, also
// on a signal whose name contains "unsupported"; a module instance
// passes.
func TestSynthGateDecidesByErrorKind(t *testing.T) {
	latch := func(q string) string {
		return "module m(input en, input d, output reg " + q + ");\nalways @(*) begin\n  if (en) " + q + " = d;\nend\nendmodule"
	}
	badRange := func(a string) string {
		return "module m(input [W-1:0] " + a + ", output y);\nassign y = " + a + "[0];\nendmodule"
	}
	c := sim.NewCache().Scope()
	for _, src := range []string{latch("q"), latch("unsupported_q"), badRange("a"), badRange("unsupported_a")} {
		if err := synthGate(c, src, "m"); err == nil {
			t.Errorf("the synthesis gate passed\n%s", src)
		}
	}
	inst := "module leaf(input a, output y);\nassign y = a;\nendmodule\nmodule m(input a, output y);\nleaf u(.a(a), .y(y));\nendmodule"
	if err := synthGate(c, inst, "m"); err != nil {
		t.Errorf("a module instance failed the synthesis gate: %v", err)
	}
}
