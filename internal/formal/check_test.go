package formal

import (
	"math/rand"
	"testing"

	"uvllm/internal/sim"
)

// accAdd and accSub are an equivalent-but-structurally-different
// accumulator pair: q+d versus q-(0-d). BMC alone can only ever bound
// their equivalence; equal registers stay equal, so k-induction proves
// them equivalent for all time — and the subtraction tree keeps the
// miter from structurally collapsing, so the proof is real solver work
// (the signal correspondence's refinement, then a window-1 step).
const accAdd = `module acc(input clk, input rst_n, input en, input [7:0] d, output reg [7:0] q);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 8'd0;
        else if (en) q <= q + d;
    end
endmodule
`

const accSub = `module acc(input clk, input rst_n, input en, input [7:0] d, output reg [7:0] q);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 8'd0;
        else if (en) q <= q - (8'd0 - d);
    end
endmodule
`

// TestInductionEquivUnbounded is induction's headline path: the
// accumulator pair is proved equivalent for all time by a closing
// inductive step, where plain BMC reports only a bounded verdict.
func TestInductionEquivUnbounded(t *testing.T) {
	a := mustCompile(t, accAdd, "acc")
	b := mustCompile(t, accSub, "acc")

	res, err := InductionEquivOpts(a, b, "clk", DefaultBMCDepth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || !res.Unbounded {
		t.Fatalf("induction must prove the accumulator pair for all time: %+v", res)
	}
	if res.Depth > 3 {
		t.Fatalf("equal-registers-stay-equal should close within a short window, closed at %d", res.Depth)
	}
	if len(res.Stats.Solves) == 0 {
		t.Fatal("proof established without a SAT solve: the miter collapsed, the inductive step went untested")
	}

	bmc, err := BMCEquivOpts(a, b, "clk", DefaultBMCDepth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bmc.Equivalent || bmc.Unbounded {
		t.Fatalf("plain BMC must stay bounded: %+v", bmc)
	}
}

// TestInductionEquivSoundOnDeepBug is the soundness gate: the counter
// pair diverges only after 13 cycles, so a shallow induction run must
// return a *bounded* verdict (never Unbounded — states just past the
// divergence threshold are counterexamples to induction at every window),
// and a deep run must refute at exactly the BMC depth with a replayable
// counterexample.
func TestInductionEquivSoundOnDeepBug(t *testing.T) {
	golden := mustCompile(t, cntGolden, "cnt")
	bug := mustCompile(t, cntBug, "cnt")

	res, err := InductionEquivOpts(golden, bug, "clk", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("divergence needs >= 13 cycles, refuted at depth %d", res.Depth)
	}
	if res.Unbounded {
		t.Fatal("UNSOUND: induction claimed an unbounded proof for a pair that diverges at depth 13")
	}

	res, err = InductionEquivOpts(golden, bug, "clk", 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("induction run to depth 16 must refute the deep counter bug")
	}
	if res.Depth < 12 {
		t.Fatalf("earliest divergence should need >= 13 cycles, got depth %d", res.Depth)
	}
	div, cyc, err := ReplayCex(cntGolden, cntBug, "cnt", "clk", res.Cex, sim.BackendCompiled)
	if err != nil || !div || cyc != res.Cex.Cycle {
		t.Fatalf("induction-path cex replay: diverged=%v cycle=%d (want %d) err=%v", div, cyc, res.Cex.Cycle, err)
	}
}

// TestInductionEquivSelf checks the self-miter through induction. The
// base case collapses structurally (both sides share every node), and
// so does the window: the signal correspondence proves every register
// equal and starts both sides from one shared free state, so the step
// closes at window 1. (Plain induction, from independent free states,
// needs window 2.)
func TestInductionEquivSelf(t *testing.T) {
	golden := mustCompile(t, cntGolden, "cnt")
	res, err := InductionEquivOpts(golden, golden, "clk", 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || !res.Unbounded {
		t.Fatalf("self-equivalence must be unbounded: %+v", res)
	}
	if res.Depth > 2 {
		t.Fatalf("equal-outputs-imply-equal-registers should close at window 2, got %d", res.Depth)
	}
}

// TestInductionMemoryEquiv runs the memory pair through induction.
// Register-file equivalence is not k-inductive under output observation
// alone — the ¬bad hypotheses constrain only the word the read port
// happened to sample, never the whole memories — so an Unbounded verdict
// on the self pair rests on the signal correspondence, and the test
// checks that claim independently of the inductive step (plain BMC to
// 3k+2 and seeded random simulation, as the rtlgen induction fuzz
// oracle does). The write-enable polarity bug must still refute through
// the interleaved loop, with the memories participating in the free
// window state.
func TestInductionMemoryEquiv(t *testing.T) {
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
	res, err := InductionEquivOpts(g, g, "clk", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("register file must be self-equivalent: %+v", res)
	}
	if res.Unbounded {
		confirmUnbounded(t, golden, golden, "rf", "clk", 4)
	}
	res, err = InductionEquivOpts(g, b, "clk", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("write-enable polarity bug must be refuted through the induction path")
	}
	div, _, err := ReplayCex(golden, bug, "rf", "clk", res.Cex, sim.BackendCompiled)
	if err != nil || !div {
		t.Fatalf("memory cex replay: diverged=%v err=%v", div, err)
	}
}

// confirmUnbounded checks an unbounded equivalence claim at depth k
// without the inductive step: plain BMC to depth 3k+2 must agree, and
// three seeded random runs of 3k cycles under the formal protocol must
// never separate the two designs.
func confirmUnbounded(t *testing.T, srcA, srcB, top, clock string, k int) {
	t.Helper()
	a, b := mustCompile(t, srcA, top), mustCompile(t, srcB, top)
	bmc, err := BMCEquivOpts(a, b, clock, 3*k+2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bmc.Equivalent {
		t.Fatalf("UNSOUND: induction claimed an unbounded proof but BMC refutes at depth %d", bmc.Depth)
	}
	m, err := NewModelOpts(a, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for probe := int64(0); probe < 3; probe++ {
		rng := rand.New(rand.NewSource(probe))
		stim := &Counterexample{}
		for c := 0; c < 3*k; c++ {
			in := m.FrozenInputs()
			for _, p := range m.FreeInputs() {
				in[p.Name] = rng.Uint64() & (1<<vecW(p.Width) - 1)
			}
			stim.Inputs = append(stim.Inputs, in)
		}
		div, cyc, err := ReplayCex(srcA, srcB, top, clock, stim, sim.BackendCompiled)
		if err != nil {
			t.Fatal(err)
		}
		if div {
			t.Fatalf("UNSOUND: induction claimed an unbounded proof but random probe %d diverges at cycle %d", probe, cyc)
		}
	}
}

// TestMinimizeCex pins counterexample minimization: the minimized trace
// still replays at the predicted cycle on both backends, its weight never
// exceeds the raw trace's, and its length is unchanged (minimization
// zeroes bits, it does not drop cycles — the divergence depth is already
// minimal by iterative deepening).
func TestMinimizeCex(t *testing.T) {
	golden := mustCompile(t, cntGolden, "cnt")
	bug := mustCompile(t, cntBug, "cnt")
	res, err := BMCEquivOpts(golden, bug, "clk", 16, Options{MinimizeCex: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("depth 16 must refute the deep counter bug")
	}
	if res.RawCex == nil {
		t.Fatal("MinimizeCex must preserve the unminimized trace in RawCex")
	}
	if len(res.Cex.Inputs) != len(res.RawCex.Inputs) {
		t.Fatalf("minimization changed the trace length: %d vs %d", len(res.Cex.Inputs), len(res.RawCex.Inputs))
	}
	if res.Cex.Weight() > res.RawCex.Weight() {
		t.Fatalf("minimized weight %d exceeds raw weight %d", res.Cex.Weight(), res.RawCex.Weight())
	}
	// The counter bug needs en held every cycle but never needs d, and the
	// frozen rst_n=1 bit is protocol, not stimulus: a genuinely minimized
	// trace carries about two set bits per cycle (en and rst_n) and a
	// fully zeroed d bus.
	if res.Cex.Weight() > 2*len(res.Cex.Inputs)+2 {
		t.Fatalf("minimized weight %d for a %d-cycle trace: minimization is not biting", res.Cex.Weight(), len(res.Cex.Inputs))
	}
	for c, in := range res.Cex.Inputs {
		if in["d"] != 0 {
			t.Fatalf("cycle %d: d=%#x survived minimization of a d-independent divergence", c, in["d"])
		}
	}
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendEventDriven} {
		div, cyc, err := ReplayCex(cntGolden, cntBug, "cnt", "clk", res.Cex, backend)
		if err != nil {
			t.Fatalf("replay on %v: %v", backend, err)
		}
		if !div || cyc != res.Cex.Cycle {
			t.Fatalf("backend %v: minimized cex diverged=%v at cycle %d, predicted %d", backend, div, cyc, res.Cex.Cycle)
		}
	}
}
