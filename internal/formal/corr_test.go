package formal

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestCheckAIGNodesAfterStructuralClose pins the graph size reported by
// a check whose inductive step closes without a solve: the count must
// include the window cycle that closed it. A combinational self-pair
// folds at every depth, so the step closes structurally at window 1.
func TestCheckAIGNodesAfterStructuralClose(t *testing.T) {
	p := mustCompile(t, `module andg(input a, input b, output y);
    assign y = a & b;
endmodule
`, "andg")
	g := NewAIG()
	u, err := newMiter(g, p, p, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := check(u, DefaultBMCDepth, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unbounded || res.Depth != 1 || len(res.Stats.Solves) != 0 {
		t.Fatalf("the self-pair must close structurally at window 1: %+v", res)
	}
	if res.Stats.AIGNodes != g.NumNodes() {
		t.Fatalf("Stats.AIGNodes = %d, graph has %d nodes", res.Stats.AIGNodes, g.NumNodes())
	}
}

// c16 is a 16-bit counter observed only through its top bit; c16Wrap
// wraps 16'hFFFF to 16'hFFF0 instead of zero, so the two diverge only
// after 65536 enabled cycles — far beyond any random run from reset.
const c16 = `module c16(input clk, input rst_n, input en, output top);
    reg [15:0] cnt;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) cnt <= 16'd0;
        else if (en) cnt <= cnt + 16'd1;
    end
    assign top = cnt[15];
endmodule
`

const c16Wrap = `module c16(input clk, input rst_n, input en, output top);
    reg [15:0] cnt;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) cnt <= 16'd0;
        else if (en) cnt <= (cnt == 16'hFFFF) ? 16'hFFF0 : cnt + 16'd1;
    end
    assign top = cnt[15];
endmodule
`

// TestCorrespondenceDeepDivergence is the gate against trusting
// simulation: every counter bit agrees on the random run, but only the
// low four are inductive (from cnt = 16'hFFFF the two designs disagree
// on bits 4–15 after one cycle). The refinement must drop the rest, and
// induction must stay bounded on a pair that is not equivalent.
func TestCorrespondenceDeepDivergence(t *testing.T) {
	a, b := mustCompile(t, c16, "c16"), mustCompile(t, c16Wrap, "c16")
	for _, filter := range []bool{true, false} {
		got, err := Correspondence(a, b, "clk", filter)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]uint64{"cnt": 0xf}; !reflect.DeepEqual(got, want) {
			t.Fatalf("filter=%v: proved %v, want %v", filter, got, want)
		}
	}
	res, err := InductionEquivOpts(a, b, "clk", DefaultBMCDepth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("the wrap is 65536 cycles deep, refuted at depth %d", res.Depth)
	}
	if res.Unbounded {
		t.Fatal("UNSOUND: induction claimed an unbounded proof for a pair that diverges at cycle 65536")
	}
}

// rfDbg is a register file with a hidden debug counter; rfDbg3 counts
// by three. Only dbg[0] (which both flip every cycle) and the memory
// words correspond.
const rfDbg = `module rf(input clk, input we, input [2:0] wa, input [2:0] ra, input [7:0] wd, output [7:0] rd);
    reg [7:0] mem [0:7];
    reg [7:0] dbg;
    assign rd = mem[ra];
    always @(posedge clk) begin
        if (we) mem[wa] <= wd;
        dbg <= dbg + 8'd1;
    end
endmodule
`

const rfDbg3 = `module rf(input clk, input we, input [2:0] wa, input [2:0] ra, input [7:0] wd, output [7:0] rd);
    reg [7:0] mem [0:7];
    reg [7:0] dbg;
    assign rd = mem[ra];
    always @(posedge clk) begin
        if (we) mem[wa] <= wd;
        dbg <= dbg + 8'd3;
    end
endmodule
`

// TestCorrespondenceHiddenState checks that the correspondence keeps
// what is inductive next to state that differs: dbg[7:1] must go, all
// 64 memory bits, dbg[0] and the read port must stay, and the pair —
// bounded under
// plain induction, whose hypotheses never reach the memory — must close
// for all time.
func TestCorrespondenceHiddenState(t *testing.T) {
	a, b := mustCompile(t, rfDbg, "rf"), mustCompile(t, rfDbg3, "rf")
	want := map[string]uint64{"dbg": 0x1, "rd": 0xff}
	for w := 0; w < 8; w++ {
		want[fmt.Sprintf("mem[%d]", w)] = 0xff
	}
	for _, filter := range []bool{true, false} {
		got, err := Correspondence(a, b, "clk", filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filter=%v: proved %v, want %v", filter, got, want)
		}
	}
	res, err := InductionEquivOpts(a, b, "clk", DefaultBMCDepth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || !res.Unbounded {
		t.Fatalf("the hidden-state pair must close for all time: %+v", res)
	}
	confirmUnbounded(t, rfDbg, rfDbg3, "rf", "clk", DefaultBMCDepth)
}

// countdownCtx reads as cancelled from its n-th Err call on.
type countdownCtx struct {
	context.Context
	calls, n int
}

func (c *countdownCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCorrespondenceCancelled checks that Options.Ctx stops the
// refinement like any other solve. The hidden-state pair folds at base
// depth 0 without a solve, so the second look at the context — after the
// depth-0 check — is the refinement's own, and the check must report
// ErrCancelled instead of closing the proof.
func TestCorrespondenceCancelled(t *testing.T) {
	a, b := mustCompile(t, rfDbg, "rf"), mustCompile(t, rfDbg3, "rf")
	ctx := &countdownCtx{Context: context.Background(), n: 2}
	res, err := InductionEquivOpts(a, b, "clk", DefaultBMCDepth, Options{Ctx: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled from the refinement, got err=%v res=%+v", err, res)
	}
}
