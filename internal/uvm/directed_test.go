package uvm

import (
	"bytes"
	"testing"

	"uvllm/internal/sim"
)

// needleSrc hides coverage behind an equality needle: uniform random
// 16-bit vectors hit in==16'd12345 with probability 2^-16 per cycle,
// while the constant dictionary hands the directed generator the value.
const needleSrc = `
module needle(clk, rst_n, in, out);
  input clk;
  input rst_n;
  input [15:0] in;
  output out;
  reg out;
  reg armed;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      armed <= 1'b0;
      out <= 1'b0;
    end
    else begin
      if (in == 16'd12345) armed <= 1'b1;
      if (armed) out <= 1'b1;
    end
  end
endmodule
`

func compileNeedle(t *testing.T) *sim.Program {
	t.Helper()
	p, err := sim.CompileSource(needleSrc, "needle", sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDesignConstantsHarvest(t *testing.T) {
	p := compileNeedle(t)
	consts := p.Design().Constants()
	found := false
	for _, c := range consts {
		if c == 12345 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Constants() = %v, missing the 12345 needle", consts)
	}
}

func TestCoverageDirectedBeatsRandomOnNeedle(t *testing.T) {
	p := compileNeedle(t)
	cfg := StimConfig{Clock: "clk", Cycles: 120, Seed: 5}
	mr, err := CoverageRandom(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	md, corpus, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if md.Percent() <= mr.Percent() {
		t.Fatalf("directed %.2f%% must beat random %.2f%% on the needle design\nrandom:\n%s\ndirected:\n%s",
			md.Percent(), mr.Percent(), mr.Report(20), md.Report(20))
	}
	if len(corpus.Entries) == 0 {
		t.Fatal("directed run saved no coverage-raising snippets")
	}
	for _, e := range corpus.Entries {
		if e.Gain <= 0 {
			t.Fatalf("corpus entry with non-positive gain %d", e.Gain)
		}
		if len(e.Vectors) == 0 {
			t.Fatal("corpus entry with no vectors")
		}
	}
}

func TestCoverageDirectedDeterministic(t *testing.T) {
	p := compileNeedle(t)
	cfg := StimConfig{Clock: "clk", Cycles: 60, Seed: 9}
	m1, c1, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Encode(), m2.Encode()) {
		t.Fatal("directed run is not deterministic for a fixed seed")
	}
	if len(c1.Entries) != len(c2.Entries) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(c1.Entries), len(c2.Entries))
	}
}

func TestCoverageBudgetIsRespected(t *testing.T) {
	p := compileNeedle(t)
	// The directed loop must drive exactly Cycles cycles after the
	// 2-cycle reset phase, same as the random baseline: statement points
	// are sampled once per cycle, so the top-level statement count equals
	// reset+budget on both.
	cfg := StimConfig{Clock: "clk", Cycles: 37, Seed: 1}
	mr, err := CoverageRandom(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	md, _, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var randomSamples, directedSamples uint64
	for _, pt := range mr.Points() {
		if pt.Name == "p0.s1" { // the always block's outer if
			randomSamples = mr.Count(pt)
			directedSamples = md.Count(pt)
		}
	}
	if randomSamples == 0 || randomSamples != directedSamples {
		t.Fatalf("cycle budgets differ: random sampled %d, directed %d", randomSamples, directedSamples)
	}
}

func TestCoverageDirectedBatchNeedle(t *testing.T) {
	p := compileNeedle(t)
	cfg := StimConfig{Clock: "clk", Cycles: 120, Seed: 5, Lanes: 4}
	mr, err := CoverageRandom(p, StimConfig{Clock: "clk", Cycles: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	md, corpus, err := CoverageDirected(p, cfg) // dispatches to the batch scorer
	if err != nil {
		t.Fatal(err)
	}
	if md.Percent() <= mr.Percent() {
		t.Fatalf("batched directed %.2f%% must beat random %.2f%% on the needle design",
			md.Percent(), mr.Percent())
	}
	if len(corpus.Entries) == 0 {
		t.Fatal("batched directed run saved no coverage-raising snippets")
	}
	for _, e := range corpus.Entries {
		if e.Gain <= 0 || len(e.Vectors) == 0 {
			t.Fatalf("bad corpus entry: gain=%d vectors=%d", e.Gain, len(e.Vectors))
		}
	}
}

func TestCoverageDirectedBatchDeterministic(t *testing.T) {
	p := compileNeedle(t)
	cfg := StimConfig{Clock: "clk", Cycles: 60, Seed: 9, Lanes: 3}
	m1, c1, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Encode(), m2.Encode()) {
		t.Fatal("batched directed run is not deterministic for a fixed seed")
	}
	if len(c1.Entries) != len(c2.Entries) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(c1.Entries), len(c2.Entries))
	}
}

func TestCoverageDirectedBatchBudget(t *testing.T) {
	p := compileNeedle(t)
	// Same statement-sample accounting as the one-lane loop: the merged
	// map must carry exactly reset + Cycles samples of the always block's
	// outer statement — L lanes of k-cycle snippets consume L·k budget.
	cfg := StimConfig{Clock: "clk", Cycles: 37, Seed: 1, Lanes: 4}
	mr, err := CoverageRandom(p, StimConfig{Clock: "clk", Cycles: 37, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	md, _, err := CoverageDirected(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var randomSamples, batchSamples uint64
	for _, pt := range mr.Points() {
		if pt.Name == "p0.s1" {
			randomSamples = mr.Count(pt)
			batchSamples = md.Count(pt)
		}
	}
	if randomSamples == 0 || randomSamples != batchSamples {
		t.Fatalf("cycle budgets differ: random sampled %d, batch sampled %d", randomSamples, batchSamples)
	}
}
