package faultgen

import (
	"fmt"
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/lint"
)

func TestClassesTaxonomy(t *testing.T) {
	if len(Classes()) != 9 {
		t.Fatalf("want 9 classes, got %d", len(Classes()))
	}
	if len(SyntaxClasses()) != 5 || len(FunctionalClasses()) != 4 {
		t.Fatal("syntax/functional split wrong")
	}
	for _, c := range SyntaxClasses() {
		if !c.IsSyntax() || c.Fig5Category() == "" || c.Fig6Category() != "" {
			t.Errorf("syntax class %s misconfigured", c)
		}
	}
	for _, c := range FunctionalClasses() {
		if c.IsSyntax() || c.Fig6Category() == "" || c.Fig5Category() != "" {
			t.Errorf("functional class %s misconfigured", c)
		}
	}
}

func TestReplaceNth(t *testing.T) {
	s, ok := replaceNth("a b a b a", "a", "X", 1)
	if !ok || s != "a b X b a" {
		t.Errorf("replaceNth = %q, %v", s, ok)
	}
	if _, ok := replaceNth("abc", "z", "X", 0); ok {
		t.Error("replaceNth found missing substring")
	}
}

func TestGenerateSyntaxFaultsLintDirty(t *testing.T) {
	for _, m := range dataset.All() {
		for _, c := range SyntaxClasses() {
			for _, f := range Generate(m, c) {
				rep := lint.Lint(f.Source)
				if len(rep.Errors()) == 0 {
					t.Errorf("%s (%s): no lint error for syntax fault", f.ID, f.Descr)
				}
				if f.Source == f.Golden {
					t.Errorf("%s: fault identical to golden", f.ID)
				}
			}
		}
	}
}

func TestGenerateFunctionalFaultsParse(t *testing.T) {
	for _, m := range dataset.All() {
		for _, c := range FunctionalClasses() {
			for _, f := range Generate(m, c) {
				rep := lint.Lint(f.Source)
				if hasSyntax(rep) {
					t.Errorf("%s (%s): functional fault broke the syntax:\n%s",
						f.ID, f.Descr, rep.Format())
				}
			}
		}
	}
}

func TestBenchmarkSizeAndComposition(t *testing.T) {
	b := Benchmark()
	if len(b) != BenchmarkSize {
		t.Fatalf("benchmark has %d instances, want %d", len(b), BenchmarkSize)
	}
	ids := map[string]bool{}
	syn, fn := 0, 0
	for _, f := range b {
		if ids[f.ID] {
			t.Errorf("duplicate fault id %s", f.ID)
		}
		ids[f.ID] = true
		if f.Class.IsSyntax() {
			syn++
		} else {
			fn++
		}
	}
	if syn == 0 || fn == 0 {
		t.Fatalf("degenerate composition: %d syntax, %d functional", syn, fn)
	}
	t.Logf("benchmark: %d syntax + %d functional = %d", syn, fn, len(b))

	// Every module must contribute, and every category must be present.
	perMod := BenchmarkByModule()
	for _, m := range dataset.All() {
		if len(perMod[m.Name]) == 0 {
			t.Errorf("module %s contributes no instances", m.Name)
		}
	}
	perClass := BenchmarkByClass()
	for _, c := range Classes() {
		if len(perClass[c]) == 0 {
			t.Errorf("class %s contributes no instances", c)
		}
	}
}

func TestBenchmarkDeterministic(t *testing.T) {
	b := Benchmark()
	ids1 := make([]string, len(b))
	for i, f := range b {
		ids1[i] = f.ID
	}
	// Regenerate every cell, bypassing the memo, and compare.
	var ids2 []string
	for _, m := range dataset.All() {
		for _, c := range Classes() {
			for _, f := range generate(m, c) {
				ids2 = append(ids2, f.ID)
			}
		}
	}
	// ids1 must be a subsequence-preserving trim of ids2.
	j := 0
	for _, id := range ids1 {
		for j < len(ids2) && ids2[j] != id {
			j++
		}
		if j == len(ids2) {
			t.Fatalf("benchmark order not a stable trim: %s out of order", id)
		}
	}
}

// TestGenerateMemoShared pins the memoized generator on every dataset
// module and class: its faults equal the unmemoized generator's field by
// field, a second call returns the same pointers, and the returned slice
// is full (len == cap), so a caller's append copies instead of writing
// into the memo.
func TestGenerateMemoShared(t *testing.T) {
	for _, m := range dataset.All() {
		for _, c := range Classes() {
			got, want := Generate(m, c), generate(m, c)
			if len(got) != len(want) {
				t.Errorf("%s/%s: memo has %d faults, generator %d", m.Name, c, len(got), len(want))
				continue
			}
			for i := range got {
				if *got[i] != *want[i] {
					t.Errorf("%s/%s: fault %d differs from the generator's:\n%+v\n%+v", m.Name, c, i, *got[i], *want[i])
				}
			}
			if cap(got) != len(got) {
				t.Errorf("%s/%s: len %d, cap %d; a caller's append would write into the memo", m.Name, c, len(got), cap(got))
			}
			again := Generate(m, c)
			for i := range again {
				if again[i] != got[i] {
					t.Errorf("%s/%s: second call returned a new fault %d", m.Name, c, i)
				}
			}
		}
	}
}

func TestTemplateFixableFraction(t *testing.T) {
	// The pre-processing stage's contribution to functional repairs in the
	// paper is ~26% (Table II). That contribution comes from functional
	// faults that surface as focused lint warnings. Check the benchmark
	// composition puts this fraction in a plausible band.
	b := Benchmark()
	fn, fixable := 0, 0
	for _, f := range b {
		if f.Class.IsSyntax() {
			continue
		}
		fn++
		rep := lint.Lint(f.Source)
		if len(rep.FocusedWarnings()) > 0 || len(rep.Errors()) > 0 {
			fixable++
		}
	}
	frac := float64(fixable) / float64(fn)
	t.Logf("functional instances: %d, lint-visible: %d (%.1f%%)", fn, fixable, 100*frac)
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("lint-visible functional fraction %.2f outside plausible band [0.10, 0.45]", frac)
	}
}

func TestFig7CellApplicability(t *testing.T) {
	// Some cells must be inapplicable ("×" in Fig. 7) and most applicable.
	total, inapplicable := 0, 0
	for _, m := range dataset.All() {
		for _, c := range Classes() {
			total++
			if len(Generate(m, c)) == 0 {
				inapplicable++
			}
		}
	}
	t.Logf("cells: %d total, %d inapplicable", total, inapplicable)
	if inapplicable == 0 {
		t.Error("expected some inapplicable cells (the paper's × marks)")
	}
	if inapplicable > total/3 {
		t.Errorf("too many inapplicable cells: %d/%d", inapplicable, total)
	}
}

func TestSpecificMutations(t *testing.T) {
	src := dataset.ByName("counter_12bit").Source

	t.Run("missing semicolon", func(t *testing.T) {
		ms := mutate(src, SynMissingSemi)
		if len(ms) == 0 {
			t.Fatal("no mutations")
		}
		if strings.Count(ms[0].src, ";") != strings.Count(src, ";")-1 {
			t.Error("semicolon count unchanged")
		}
	})
	t.Run("keyword typo", func(t *testing.T) {
		ms := mutate(src, SynKeywordTypo)
		if len(ms) == 0 || !strings.Contains(ms[0].src, "alway @") {
			t.Fatalf("typo mutation missing: %v", describeAll(ms))
		}
	})
	t.Run("sensitivity removal", func(t *testing.T) {
		ms := mutate(src, FuncCondition)
		found := false
		for _, mu := range ms {
			if strings.Contains(mu.descr, "negedge rst_n") &&
				!strings.Contains(mu.src, "or negedge rst_n") {
				found = true
			}
		}
		if !found {
			t.Errorf("no sensitivity-removal variant: %v", describeAll(ms))
		}
	})
	t.Run("value misuse", func(t *testing.T) {
		ms := mutate(src, FuncLogic)
		if len(ms) == 0 {
			t.Fatal("no logic mutations")
		}
	})
}

func describeAll(ms []mutation) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.descr)
	}
	return out
}

func TestEffectiveRejectsBenignMutation(t *testing.T) {
	m := dataset.ByName("adder_8bit")
	f := &Fault{
		ID: "adder_8bit/benign", Module: "adder_8bit", Class: FuncLogic,
		Source: m.Source, // identical to golden: trivially benign
		Golden: m.Source,
	}
	if Effective(f) {
		t.Error("benign (identical) fault judged effective")
	}
}

func TestBenchmarkInstancesAllEffective(t *testing.T) {
	if testing.Short() {
		t.Skip("full effectiveness sweep in -short mode")
	}
	for _, f := range Benchmark() {
		if !Effective(f) {
			t.Errorf("%s (%s) is not effective", f.ID, f.Descr)
		}
	}
}

// BenchmarkFaultGeneration measures the paradigm error generator on one
// module across all classes: mutation, lint and the trigger check of
// every variant, without the memo that serves repeat calls.
func BenchmarkFaultGeneration(b *testing.B) {
	m := dataset.ByName("traffic_light")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, c := range Classes() {
			n += len(generate(m, c))
		}
		if n == 0 {
			b.Fatal("no faults generated")
		}
	}
}

func ExampleGenerate() {
	m := dataset.ByName("accu")
	faults := Generate(m, FuncLogic)
	fmt.Println(len(faults) > 0)
	// Output: true
}
