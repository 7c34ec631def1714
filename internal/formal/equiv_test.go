package formal

import (
	"testing"

	"uvllm/internal/sim"
)

func mustCompile(t *testing.T, src, top string) *sim.Program {
	t.Helper()
	p, err := sim.CompileSource(src, top, sim.BackendCompiled)
	if err != nil {
		t.Fatalf("compile %s: %v", top, err)
	}
	return p
}

// TestCombEquivStructurallyDifferent proves structurally different
// implementations of the dataset's adder_8bit equivalent to it — a
// gate-level ripple adder at depth 1 and the reassociated sum at depth
// 3 — each a genuinely non-trivial UNSAT the structural hashing cannot
// collapse.
func TestCombEquivStructurallyDifferent(t *testing.T) {
	flat := `module add(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
    assign {cout, sum} = a + b + {7'd0, cin};
endmodule
`
	for _, tc := range []struct {
		name, src string
		k         int
	}{
		{"ripple", `module fa(input x, input y, input ci, output s, output co);
    assign s = x ^ y ^ ci;
    assign co = (x & y) | (ci & (x ^ y));
endmodule
module add(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
    wire c1, c2, c3, c4, c5, c6, c7;
    fa f0(.x(a[0]), .y(b[0]), .ci(cin), .s(sum[0]), .co(c1));
    fa f1(.x(a[1]), .y(b[1]), .ci(c1), .s(sum[1]), .co(c2));
    fa f2(.x(a[2]), .y(b[2]), .ci(c2), .s(sum[2]), .co(c3));
    fa f3(.x(a[3]), .y(b[3]), .ci(c3), .s(sum[3]), .co(c4));
    fa f4(.x(a[4]), .y(b[4]), .ci(c4), .s(sum[4]), .co(c5));
    fa f5(.x(a[5]), .y(b[5]), .ci(c5), .s(sum[5]), .co(c6));
    fa f6(.x(a[6]), .y(b[6]), .ci(c6), .s(sum[6]), .co(c7));
    fa f7(.x(a[7]), .y(b[7]), .ci(c7), .s(sum[7]), .co(cout));
endmodule
`, 1},
		{"reassociated", `module add(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
    assign {cout, sum} = {7'd0, cin} + b + a;
endmodule
`, 3},
	} {
		res, err := BMCEquivOpts(mustCompile(t, flat, "add"), mustCompile(t, tc.src, "add"), "", tc.k, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Equivalent || res.Depth != tc.k {
			t.Fatalf("%s: must be equivalent to depth %d: %+v", tc.name, tc.k, res)
		}
		if len(res.Stats.Solves) == 0 {
			t.Fatalf("%s: equivalence was established without a SAT solve: the miter collapsed, so the UNSAT path went untested", tc.name)
		}
	}
}

const cntGolden = `module cnt(input clk, input rst_n, input en, input [7:0] d, output reg [7:0] q, output hit);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 8'd0;
        else if (en) q <= q + 8'd1;
    end
    assign hit = (q == d);
endmodule
`

// cntBug counts by 2 once the counter passes 8'h0b: a divergence only a
// deep multi-cycle unrolling can expose from the reset state (the counter
// must first be driven up for 12 consecutive enabled cycles).
const cntBug = `module cnt(input clk, input rst_n, input en, input [7:0] d, output reg [7:0] q, output hit);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 8'd0;
        else if (en) begin
            if (q > 8'h0b) q <= q + 8'd2;
            else q <= q + 8'd1;
        end
    end
    assign hit = (q == d);
endmodule
`

// TestBMCEquivSelfAndDeepBug checks both verdicts of the sequential
// engine: a design is k-equivalent to itself, shallow unrollings cannot
// see a deep bug, and a deep enough unrolling refutes it with a
// counterexample that concrete simulation reproduces on both backends.
func TestBMCEquivSelfAndDeepBug(t *testing.T) {
	golden := mustCompile(t, cntGolden, "cnt")
	bug := mustCompile(t, cntBug, "cnt")

	res, err := BMCEquivOpts(golden, golden, "clk", 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.Depth != 6 {
		t.Fatalf("self-equivalence: %+v", res)
	}

	// The bug needs q > 0x0b: unreachable within a few post-reset cycles.
	res, err = BMCEquivOpts(golden, bug, "clk", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("divergence needs >= 13 cycles, found cex at depth %d", res.Depth)
	}

	res, err = BMCEquivOpts(golden, bug, "clk", 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("BMC to depth 16 must refute the deep counter bug")
	}
	if res.Cex == nil || len(res.Cex.Inputs) != res.Depth+1 {
		t.Fatalf("malformed counterexample: %+v", res.Cex)
	}
	if res.Depth < 12 {
		t.Fatalf("earliest divergence should need >= 13 cycles, got depth %d", res.Depth)
	}
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendEventDriven} {
		div, cyc, err := ReplayCex(cntGolden, cntBug, "cnt", "clk", res.Cex, backend)
		if err != nil {
			t.Fatalf("replay on %v: %v", backend, err)
		}
		if !div {
			t.Fatalf("counterexample did not reproduce on backend %v", backend)
		}
		if cyc != res.Cex.Cycle {
			t.Fatalf("replay diverged at cycle %d, formal predicted %d", cyc, res.Cex.Cycle)
		}
	}
}

// TestCexSequenceBridge is the counterexample-to-sequence bridge: the SAT
// model becomes a uvm.DirectedSequence whose materialized vectors, driven
// through both simulation backends, reproduce the refutation at the
// predicted cycle.
func TestCexSequenceBridge(t *testing.T) {
	golden := mustCompile(t, cntGolden, "cnt")
	bugSrc := `module cnt(input clk, input rst_n, input en, input [7:0] d, output reg [7:0] q, output hit);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 8'd0;
        else if (en) q <= q + 8'd1;
    end
    assign hit = (q >= d);
endmodule
`
	res, err := BMCEquivOpts(golden, mustCompile(t, bugSrc, "cnt"), "clk", 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("hit-comparison bug must be refuted within 8 cycles")
	}
	vectors := res.Cex.Vectors()
	if len(vectors) != len(res.Cex.Inputs) {
		t.Fatalf("vector stream length %d, want %d", len(vectors), len(res.Cex.Inputs))
	}

	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendEventDriven} {
		sG, err := sim.CompileAndNewBackend(cntGolden, "cnt", backend)
		if err != nil {
			t.Fatal(err)
		}
		sB, err := sim.CompileAndNewBackend(bugSrc, "cnt", backend)
		if err != nil {
			t.Fatal(err)
		}
		hG, hB := sim.NewHarness(sG, "clk"), sim.NewHarness(sB, "clk")
		if err := hG.ApplyReset(ResetCycles); err != nil {
			t.Fatal(err)
		}
		if err := hB.ApplyReset(ResetCycles); err != nil {
			t.Fatal(err)
		}
		divergedAt := -1
		for cyc, in := range vectors {
			outG, err := hG.Cycle(in)
			if err != nil {
				t.Fatal(err)
			}
			outB, err := hB.Cycle(in)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range outG {
				if outB[name] != v && divergedAt < 0 {
					divergedAt = cyc
				}
			}
			if divergedAt >= 0 {
				break
			}
		}
		if divergedAt != res.Cex.Cycle {
			t.Fatalf("backend %v: sequence replay diverged at %d, formal predicted %d", backend, divergedAt, res.Cex.Cycle)
		}
	}
}

// TestBMCEquivPortMismatch pins the output-set convention: an output the
// second design lacks compares against zero, like the scoreboard's map
// lookup, so renaming an output is detectable.
func TestBMCEquivPortMismatch(t *testing.T) {
	a := `module m(input [3:0] x, output [3:0] y);
    assign y = x + 4'd1;
endmodule
`
	b := `module m(input [3:0] x, output [3:0] z);
    assign z = x + 4'd1;
endmodule
`
	res, err := BMCEquivOpts(mustCompile(t, a, "m"), mustCompile(t, b, "m"), "", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("renamed output must be detectable")
	}
}

// TestBMCMemoryEquiv exercises memories through the sequential engine: a
// register file written through one port is equivalent to itself, and a
// write-enable polarity bug is refuted with a replayable cex.
func TestBMCMemoryEquiv(t *testing.T) {
	golden := `module rf(input clk, input we, input [2:0] wa, input [2:0] ra, input [7:0] wd, output [7:0] rd);
    reg [7:0] mem [0:7];
    assign rd = mem[ra];
    always @(posedge clk) begin
        if (we) mem[wa] <= wd;
    end
endmodule
`
	bug := `module rf(input clk, input we, input [2:0] wa, input [2:0] ra, input [7:0] wd, output [7:0] rd);
    reg [7:0] mem [0:7];
    assign rd = mem[ra];
    always @(posedge clk) begin
        if (!we) mem[wa] <= wd;
    end
endmodule
`
	g, b := mustCompile(t, golden, "rf"), mustCompile(t, bug, "rf")
	res, err := BMCEquivOpts(g, g, "clk", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("register file must be self-equivalent")
	}
	res, err = BMCEquivOpts(g, b, "clk", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("write-enable polarity bug must be refuted")
	}
	div, _, err := ReplayCex(golden, bug, "rf", "clk", res.Cex, sim.BackendCompiled)
	if err != nil || !div {
		t.Fatalf("memory cex replay: diverged=%v err=%v", div, err)
	}
}

// TestBMCEquivOutputShadowing is the regression test for the output-set
// convention: a candidate that renames its output port but keeps a
// same-named *internal* signal mirroring the golden must be refuted —
// the miter compares what a harness scoreboard observes (output ports,
// missing ones reading zero), never internal state.
func TestBMCEquivOutputShadowing(t *testing.T) {
	golden := `module m(input clk, input [3:0] d, output reg [3:0] y);
    always @(posedge clk) y <= d;
endmodule
`
	shadow := `module m(input clk, input [3:0] d, output reg [3:0] z);
    reg [3:0] y;
    always @(posedge clk) begin
        y <= d;
        z <= 4'd0;
    end
endmodule
`
	res, err := BMCEquivOpts(mustCompile(t, golden, "m"), mustCompile(t, shadow, "m"), "clk", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("internal signal shadowing a renamed output must not fake equivalence")
	}
	div, cyc, err := ReplayCex(golden, shadow, "m", "clk", res.Cex, sim.BackendCompiled)
	if err != nil || !div || cyc != res.Cex.Cycle {
		t.Fatalf("shadowing cex replay: div=%v cyc=%d err=%v", div, cyc, err)
	}
}
