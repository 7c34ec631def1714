package faultgen

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

// functionalFault returns a functional mutant with sequential-observable
// behavior for the batch-observation tests.
func functionalFault(t *testing.T) *Fault {
	t.Helper()
	for _, m := range dataset.All() {
		for _, c := range Classes() {
			if c.IsSyntax() {
				continue
			}
			for _, f := range Generate(m, c) {
				if rate, err := observe(f); err == nil && rate < 1.0 {
					return f
				}
			}
		}
	}
	t.Fatal("no simulation-observable functional fault in the dataset")
	return nil
}

// TestObserveLanesMatchesSequential pins lane 0 of the batched observer
// to the sequential observe() pass rate: same seed, same stimulus
// protocol, same golden trace, same score.
func TestObserveLanesMatchesSequential(t *testing.T) {
	f := functionalFault(t)
	want, err := observe(f)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := ObserveLanes(f, []int64{1}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != want {
		t.Fatalf("%s: batched rate %.4f != sequential rate %.4f", f.ID, rates[0], want)
	}
}

// TestObserveLanesMultiSeed checks the multi-seed sweep: the golden
// source passes every seed perfectly, a mutant stays below 1.0 on at
// least the seed that classified it, and per-seed rates are independent.
func TestObserveLanesMultiSeed(t *testing.T) {
	f := functionalFault(t)
	seeds := []int64{1, 2, 3, 4}
	golden := &Fault{ID: f.ID + "/golden", Module: f.Module, Class: f.Class,
		Source: f.Golden, Golden: f.Golden}
	gr, err := ObserveLanes(golden, seeds, 120)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range gr {
		if r != 1.0 {
			t.Fatalf("golden %s seed %d scored %.4f, want 1.0", f.Module, seeds[k], r)
		}
	}
	mr, err := ObserveLanes(f, seeds, 300)
	if err != nil {
		t.Fatal(err)
	}
	if mr[0] >= 1.0 {
		t.Fatalf("%s: classifying seed no longer observes the fault (%.4f)", f.ID, mr[0])
	}
	// Re-running must be deterministic.
	mr2, err := ObserveLanes(f, seeds, 300)
	if err != nil {
		t.Fatal(err)
	}
	for k := range mr {
		if mr[k] != mr2[k] {
			t.Fatalf("seed %d rate not deterministic: %.4f vs %.4f", seeds[k], mr[k], mr2[k])
		}
	}
}

// TestObserveLanesPinned pins every functional benchmark fault's
// per-seed pass rates, error included, to digests recorded while every
// lane ran on sim.Batch: running the supported faults on psim.Engine may
// not move a rate. The first shape is lane_screen's (eight seeds, 500
// vectors). A 65-seed call is past psim's word, so it runs on sim.Batch,
// and its first eight rates must equal the eight-seed call's.
func TestObserveLanesPinned(t *testing.T) {
	var faults []*Fault
	for _, f := range Benchmark() {
		if !f.Class.IsSyntax() {
			faults = append(faults, f)
		}
	}
	seeds := func(first int64, n int) []int64 {
		s := make([]int64, n)
		for k := range s {
			s[k] = first + int64(k)
		}
		return s
	}
	for _, tc := range []struct {
		seeds   []int64
		vectors int
		want    string
	}{
		{seeds(8, 8), 500, "05330ef780fbf0f25753e24b"},
		{seeds(1, 3), 200, "52f81a398e73d38b7eb406ee"},
	} {
		h := sha256.New()
		for _, f := range faults {
			rates, err := ObserveLanes(f, tc.seeds, tc.vectors)
			fmt.Fprintf(h, "%s|%v|%v\n", f.ID, rates, err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != tc.want {
			t.Errorf("%d seeds x %d vectors: %d faults' rates digest %s, want %s",
				len(tc.seeds), tc.vectors, len(faults), got, tc.want)
		}
	}

	f := functionalFault(t)
	p, err := sim.SharedCache().Compile(f.Source, f.Meta().Top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := psim.Supported(p, f.Meta().Clock); err != nil {
		t.Fatalf("%s: %v", f.ID, err)
	}
	eight, err := ObserveLanes(f, seeds(8, 8), 500)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ObserveLanes(f, seeds(8, 65), 500)
	if err != nil {
		t.Fatalf("%s: 65 seeds: %v", f.ID, err)
	}
	if len(wide) != 65 || !slices.Equal(wide[:8], eight) {
		t.Fatalf("%s: 65-seed rates %v do not start with the 8-seed rates %v", f.ID, wide[:min(8, len(wide))], eight)
	}
}
