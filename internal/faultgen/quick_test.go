package faultgen

import (
	"strings"
	"testing"

	"uvllm/internal/llm"
)

// TestEveryFaultIsRepairableByLineDiff pins the contract between the fault
// generator and the repair oracle: for every benchmark instance, the
// minimal line diff against the golden source must produce a patch pair
// that — applied as a single string replacement — reconstructs the golden
// source exactly. If this breaks, "solvable" oracle draws silently stop
// producing working repairs.
func TestEveryFaultIsRepairableByLineDiff(t *testing.T) {
	for _, f := range Benchmark() {
		orig, patched, nd := llm.LineDiff(f.Source, f.Golden)
		if nd == 0 {
			t.Errorf("%s: no diff against golden", f.ID)
			continue
		}
		if strings.TrimSpace(orig) == "" {
			t.Errorf("%s: unlocatable (whitespace-only) original %q", f.ID, orig)
			continue
		}
		if !strings.Contains(f.Source, orig) {
			t.Errorf("%s: diff original not present in faulty source: %q", f.ID, orig)
			continue
		}
		if got := strings.Replace(f.Source, orig, patched, 1); got != f.Golden {
			t.Errorf("%s (%s): applying the diff does not reach golden", f.ID, f.Descr)
		}
	}
}

// TestFaultsSingleRegion documents that the generator produces localized
// (single-region) defects, matching Table I's single-site error patterns.
func TestFaultsSingleRegion(t *testing.T) {
	multi := 0
	for _, f := range Benchmark() {
		if _, _, nd := llm.LineDiff(f.Source, f.Golden); nd > 3 {
			multi++
		}
	}
	if multi > len(Benchmark())/10 {
		t.Errorf("%d instances have wide diffs (> 3 lines); generator not localized", multi)
	}
}

// TestMutationsDeterministic: regenerating a module's faults (bypassing
// the memo) yields byte-identical sources.
func TestMutationsDeterministic(t *testing.T) {
	b := Benchmark()
	for _, f := range b[:25] {
		again := generate(f.Meta(), f.Class)
		found := false
		for _, g := range again {
			if g.ID == f.ID {
				found = true
				if g.Source != f.Source || g.Descr != f.Descr {
					t.Errorf("%s: regeneration differs", f.ID)
				}
			}
		}
		if !found {
			t.Errorf("%s: instance vanished on regeneration", f.ID)
		}
	}
}
