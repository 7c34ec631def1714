package baseline

import (
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

func oracleFor(f *faultgen.Fault, seed int64) llm.Client {
	m := f.Meta()
	return llm.NewOracle(llm.Knowledge{
		FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
		Complexity: m.Complexity, IsFSM: m.IsFSM,
	}, llm.DefaultProfile(), seed)
}

func firstFault(t *testing.T, module string, class faultgen.Class) *faultgen.Fault {
	t.Helper()
	fs := faultgen.Generate(dataset.ByName(module), class)
	if len(fs) == 0 {
		t.Skipf("no %s fault for %s", class, module)
	}
	return fs[0]
}

func expertCheck(t *testing.T, source, module string) bool {
	t.Helper()
	m := dataset.ByName(module)
	env, err := uvm.NewEnv(uvm.Config{
		Source: source, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: 999,
	})
	if err != nil {
		return false
	}
	ok, _, _ := RandomOwnBench(source, m, 600, 999, SimServices{Backend: sim.BackendCompiled})
	_ = env
	return ok
}

func TestWeakBenchShape(t *testing.T) {
	m := dataset.ByName("alu")
	d, err := elaborateFor(m, SimServices{})
	if err != nil {
		t.Fatal(err)
	}
	vs := WeakBench(m, d)
	if len(vs) != 12 {
		t.Fatalf("weak bench has %d vectors, want 12", len(vs))
	}
	for _, v := range vs {
		if _, ok := v["a"]; !ok {
			t.Fatal("vector missing input a")
		}
	}
}

func TestGoldenPassesOwnBenches(t *testing.T) {
	for _, m := range dataset.All() {
		d, err := elaborateFor(m, SimServices{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		pass, log, _ := RunOwnBench(m.Source, m, WeakBench(m, d), SimServices{})
		if !pass {
			t.Errorf("%s: golden fails weak bench:\n%s", m.Name, log)
		}
		pass, log, _ = RandomOwnBench(m.Source, m, 48, 5, SimServices{})
		if !pass {
			t.Errorf("%s: golden fails random bench:\n%s", m.Name, log)
		}
	}
}

func TestMEICRepairsEasyFault(t *testing.T) {
	f := firstFault(t, "counter_12bit", faultgen.FuncLogic)
	fixed := false
	for seed := int64(1); seed <= 15 && !fixed; seed++ {
		x := NewMEIC(oracleFor(f, seed))
		out := x.Repair(f)
		if out.Hit && expertCheck(t, out.Final, f.Module) {
			fixed = true
			if out.Seconds <= 0 || out.Usage.Calls == 0 {
				t.Error("MEIC accounting missing")
			}
		}
	}
	if !fixed {
		t.Fatal("MEIC never repaired an easy counter fault")
	}
}

func TestMEICUsesMoreTokensThanOneCall(t *testing.T) {
	f := firstFault(t, "seq_detector", faultgen.FuncLogic)
	x := NewMEIC(oracleFor(f, 1))
	out := x.Repair(f)
	if out.Usage.Calls < 2 {
		t.Errorf("MEIC made %d calls; dual-agent loop should make more", out.Usage.Calls)
	}
}

func TestRawLLMOneShot(t *testing.T) {
	f := firstFault(t, "gray_code", faultgen.FuncLogic)
	anyHit := false
	for seed := int64(1); seed <= 20 && !anyHit; seed++ {
		x := NewRawLLM(oracleFor(f, seed))
		out := x.Repair(f)
		if out.Usage.Calls != 1 {
			t.Fatalf("raw baseline made %d calls, want 1", out.Usage.Calls)
		}
		anyHit = out.Hit
	}
	if !anyHit {
		t.Error("raw LLM never hit on an easy fault across 20 seeds")
	}
}

func TestStriderRepairsValueFault(t *testing.T) {
	// Strider's transition-guided search excels at constant/operator
	// faults on simple modules.
	f := firstFault(t, "counter_12bit", faultgen.FuncLogic)
	x := NewStrider()
	out := x.Repair(f)
	if !out.Hit {
		t.Fatalf("Strider failed on %s (%s)", f.ID, f.Descr)
	}
	if !expertCheck(t, out.Final, f.Module) {
		t.Log("Strider hit overfits expert validation (possible but rare here)")
	}
	if out.Usage.Calls != 0 {
		t.Error("template repair must not use the LLM")
	}
}

func TestStriderSkipsSyntaxFaults(t *testing.T) {
	f := firstFault(t, "counter_12bit", faultgen.SynKeywordTypo)
	out := NewStrider().Repair(f)
	if out.Hit {
		t.Error("Strider cannot repair syntax-broken code")
	}
}

func TestRTLRepairFixesBitwidthDecl(t *testing.T) {
	f := firstFault(t, "counter_12bit", faultgen.FuncDeclType)
	if !strings.Contains(f.Descr, "narrowed declaration") {
		t.Skipf("first decl fault is %q", f.Descr)
	}
	out := NewRTLRepair().Repair(f)
	if !out.Hit {
		t.Fatalf("RTL-Repair failed on its specialty: %s (%s)", f.ID, f.Descr)
	}
	if !expertCheck(t, out.Final, f.Module) {
		t.Errorf("RTL-Repair's width fix fails expert validation:\n%s", out.Final)
	}
}

func TestTemplateSearchBudgetBounded(t *testing.T) {
	f := firstFault(t, "vending_machine", faultgen.FuncLogic)
	out := NewStrider().Repair(f)
	// 16 candidates * 8 vectors + initial run 8 => at most 136 vectors.
	if out.Seconds > defaultCost.Sim(templateBenchN*(16+1))+1e-9 {
		t.Errorf("budget exceeded: %.3f s modeled", out.Seconds)
	}
}

func TestEnumerateMutationsPrioritizesSuspicious(t *testing.T) {
	src := "module m(input a, output y);\nassign y = a + 1'b1;\nassign y2 = a;\nendmodule"
	muts := enumerateMutations(src, map[int]bool{2: true}, false)
	if len(muts) == 0 {
		t.Fatal("no mutations")
	}
	// The first mutation must touch line 2 (the suspicious one).
	first := strings.Split(muts[0], "\n")[1]
	if first == "assign y = a + 1'b1;" {
		t.Errorf("first mutation did not touch the suspicious line: %q", first)
	}
}
