package formal

import (
	"testing"

	"uvllm/internal/assert"
	"uvllm/internal/sim"
)

// modSaturate saturates at 9 and exposes a one-hot phase vector, giving
// one provable Bound, one refutable Bound, one provable OneHot and one
// provable Mutex.
const modSaturate = `module sat9(input clk, input rst_n, input en, output reg [3:0] q, output [3:0] phase, output lo, output hi);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 4'd0;
        else if (en && q < 4'd9) q <= q + 4'd1;
    end
    assign phase = (q[1:0] == 2'd0) ? 4'b0001 :
                   (q[1:0] == 2'd1) ? 4'b0010 :
                   (q[1:0] == 2'd2) ? 4'b0100 : 4'b1000;
    assign lo = (q < 4'd3);
    assign hi = (q > 4'd6);
endmodule
`

// TestCheckAssertions covers all three verdicts: a true bound proves, a
// too-tight bound refutes with a counterexample the UVM checker confirms,
// structural one-hot/mutex invariants prove, and opaque forms skip.
func TestCheckAssertions(t *testing.T) {
	prog := mustCompile(t, modSaturate, "sat9")
	as := []assert.Assertion{
		assert.Bound{Signal: "q", Limit: 9},
		assert.Bound{Signal: "q", Limit: 4},
		assert.OneHot{Signal: "phase"},
		assert.Mutex{A: "lo", B: "hi"},
		assert.Invariant{Label: "opaque", Pred: func(map[string]uint64) bool { return true }},
	}
	const k = 8
	results, err := CheckAssertions(prog, "clk", as, k)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdicts := []AssertVerdict{AssertProved, AssertRefuted, AssertProved, AssertProved, AssertSkipped}
	for i, r := range results {
		if r.Verdict != wantVerdicts[i] {
			t.Fatalf("assertion %s: verdict %v, want %v", r.Assertion.Name(), r.Verdict, wantVerdicts[i])
		}
	}

	// The refuted bound's counterexample must violate the assertion when
	// replayed through the UVM checker on both backends.
	ref := results[1]
	if ref.Cex == nil || ref.Cex.Signal != ref.Assertion.Name() {
		t.Fatalf("refutation carries no usable cex: %+v", ref.Cex)
	}
	vectors := ref.Cex.Vectors()
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendEventDriven} {
		s, err := sim.CompileAndNewBackend(modSaturate, "sat9", backend)
		if err != nil {
			t.Fatal(err)
		}
		h := sim.NewHarness(s, "clk")
		if err := h.ApplyReset(ResetCycles); err != nil {
			t.Fatal(err)
		}
		checker := assert.NewChecker([]assert.Assertion{ref.Assertion})
		for _, in := range vectors {
			out, err := h.Cycle(in)
			if err != nil {
				t.Fatal(err)
			}
			all := map[string]uint64{}
			for k2, v := range in {
				all[k2] = v
			}
			for k2, v := range out {
				all[k2] = v
			}
			checker.Sample(all)
		}
		if checker.Passed() {
			t.Fatalf("backend %v: refutation cex did not violate %s in simulation", backend, ref.Assertion.Name())
		}
		if got := checker.Violations[0].Cycle; got != ref.Cex.Cycle {
			t.Fatalf("backend %v: violation at cycle %d, formal predicted %d", backend, got, ref.Cex.Cycle)
		}
	}
}

// TestPromoteAssertions pins the held-on-trace -> proved-to-depth-k
// upgrade path end to end.
func TestPromoteAssertions(t *testing.T) {
	prog := mustCompile(t, modSaturate, "sat9")
	as := []assert.Assertion{
		assert.Bound{Signal: "q", Limit: 9},
		assert.Bound{Signal: "q", Limit: 4},
		assert.Invariant{Label: "opaque", Pred: func(map[string]uint64) bool { return true }},
	}
	results, err := CheckAssertions(prog, "clk", as, 8)
	if err != nil {
		t.Fatal(err)
	}
	promoted, refuted, skipped := PromoteAssertions(results)
	if len(promoted) != len(as) {
		t.Fatalf("promoted list must preserve length: %d vs %d", len(promoted), len(as))
	}
	if _, ok := promoted[0].(assert.Promoted); !ok {
		t.Fatalf("true bound not promoted: %T", promoted[0])
	}
	if _, ok := promoted[1].(assert.Promoted); ok {
		t.Fatal("refuted bound must not be promoted")
	}
	if len(refuted) != 1 || refuted[0].Assertion.Name() != "bound_q" {
		t.Fatalf("refuted = %+v", refuted)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
}

// TestCheckAssertionsHugeBound is the regression test for the large-
// limit bound path: a 64-bit passthrough register can exceed any limit
// below all-ones, including limits with the top bit set — those must
// refute, while the all-ones limit is genuinely unviolable and proves.
func TestCheckAssertionsHugeBound(t *testing.T) {
	src := `module pass(input clk, input [63:0] d, output reg [63:0] q);
    always @(posedge clk) q <= d;
endmodule
`
	prog := mustCompile(t, src, "pass")
	results, err := CheckAssertions(prog, "clk", []assert.Assertion{
		assert.Bound{Signal: "q", Limit: 1 << 63},
		assert.Bound{Signal: "q", Limit: ^uint64(0)},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Verdict != AssertRefuted {
		t.Fatalf("limit 2^63 on a free 64-bit register: verdict %v, want refuted", results[0].Verdict)
	}
	if v, ok := results[0].Cex.Inputs[results[0].Cex.Cycle]["d"]; !ok || v <= 1<<63 {
		t.Fatalf("cex does not violate the bound: d=%#x", v)
	}
	if results[1].Verdict != AssertProved {
		t.Fatalf("all-ones limit: verdict %v, want proved", results[1].Verdict)
	}
}
