package uvm

import (
	"bytes"
	"testing"

	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

// TestCoverageDirectedBitLanesNeedle: the bit-parallel scorer must beat
// the random baseline on the needle design under the same scalar cycle
// budget, on the engine path (the async-reset needle is in the subset).
func TestCoverageDirectedBitLanesNeedle(t *testing.T) {
	p := compileNeedle(t)
	if err := psim.Supported(p, "clk"); err != nil {
		t.Fatalf("needle design left the bit-parallel subset: %v", err)
	}
	cfg := StimConfig{Clock: "clk", Cycles: 120, Seed: 5, BitLanes: true}
	mr, err := CoverageRandom(p, StimConfig{Clock: "clk", Cycles: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	md, corpus, err := CoverageDirected(p, cfg) // dispatches to the bit scorer
	if err != nil {
		t.Fatal(err)
	}
	if md.Percent() <= mr.Percent() {
		t.Fatalf("bit-parallel directed %.2f%% must beat random %.2f%% on the needle design",
			md.Percent(), mr.Percent())
	}
	if len(corpus.Entries) == 0 {
		t.Fatal("bit-parallel directed run saved no coverage-raising snippets")
	}
	for _, e := range corpus.Entries {
		if e.Gain <= 0 || len(e.Vectors) == 0 {
			t.Fatalf("bad corpus entry: gain=%d vectors=%d", e.Gain, len(e.Vectors))
		}
	}
}

func TestCoverageDirectedBitLanesDeterministic(t *testing.T) {
	p := compileNeedle(t)
	cfg := StimConfig{Clock: "clk", Cycles: 60, Seed: 9, BitLanes: true, Lanes: 16}
	m1, c1, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Encode(), m2.Encode()) {
		t.Fatal("bit-parallel directed run is not deterministic for a fixed seed")
	}
	if len(c1.Entries) != len(c2.Entries) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(c1.Entries), len(c2.Entries))
	}
}

// TestCoverageDirectedBitLanesBudget pins the scalar accounting: only
// the replayed winner cycles collect coverage, so the map carries
// exactly reset + Cycles samples of the always block's outer statement —
// identical to the random baseline, speculative lanes notwithstanding.
func TestCoverageDirectedBitLanesBudget(t *testing.T) {
	p := compileNeedle(t)
	cfg := StimConfig{Clock: "clk", Cycles: 37, Seed: 1, BitLanes: true}
	mr, err := CoverageRandom(p, StimConfig{Clock: "clk", Cycles: 37, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	md, _, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var randomSamples, bitSamples uint64
	for _, pt := range mr.Points() {
		if pt.Name == "p0.s1" {
			randomSamples = mr.Count(pt)
			bitSamples = md.Count(pt)
		}
	}
	if randomSamples == 0 || randomSamples != bitSamples {
		t.Fatalf("cycle budgets differ: random sampled %d, bit-parallel sampled %d", randomSamples, bitSamples)
	}
}

// TestCoverageDirectedBitLanesFallback: a design outside the subset (an
// edge trigger on a data strobe) must transparently take the sim.Batch
// scorer and still produce a coverage map under the batch budget rules.
func TestCoverageDirectedBitLanesFallback(t *testing.T) {
	src := `module ff(input clk, input strobe, input [3:0] d, output reg [3:0] q);
always @(posedge strobe) q <= d;
endmodule`
	p, err := sim.CompileSource(src, "ff", sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := psim.Supported(p, "clk"); err == nil {
		t.Fatal("strobe design unexpectedly in the bit-parallel subset")
	}
	cfg := StimConfig{Clock: "clk", Cycles: 40, Seed: 3, BitLanes: true, Lanes: 4}
	m, _, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Percent() <= 0 {
		t.Fatalf("fallback run collected no coverage (%.2f%%)", m.Percent())
	}
}
