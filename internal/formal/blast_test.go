package formal

import (
	"errors"
	"math/rand"
	"testing"

	"uvllm/internal/sim"
)

// stepConcrete drives the model with constant vectors and returns the
// fully folded output values, failing the test if any output bit stayed
// symbolic (with constant inputs the AIG's constant propagation must
// collapse the entire cycle).
func stepConcrete(t *testing.T, m *Model, st *State, in map[string]uint64) (*State, map[string]uint64) {
	t.Helper()
	sym := map[string]Vec{}
	for _, p := range m.FreeInputs() {
		sym[p.Name] = m.AIG().ConstVec(in[p.Name], vecW(p.Width))
	}
	st2, err := m.Step(st, sym)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	outs := map[string]uint64{}
	for i, p := range m.Outputs() {
		v, ok := m.AIG().ConstVal(m.OutputVec(st2, i))
		if !ok {
			t.Fatalf("output %s did not fold to a constant under constant inputs", p.Name)
		}
		outs[p.Name] = v
	}
	return st2, outs
}

// crossValidate runs the model and a concrete simulator side by side
// under the same random stimulus (the formal protocol: reset preamble,
// then reset held deasserted) and requires identical outputs every cycle
// and an identical full arena at the end.
func crossValidate(t *testing.T, src, top, clock string, cycles int, seed int64) {
	t.Helper()
	prog, err := sim.CompileSource(src, top, sim.BackendCompiled)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := NewModelOpts(prog, Options{Clock: clock})
	if err != nil {
		t.Fatalf("NewModelOpts: %v", err)
	}
	st, err := m.InitState()
	if err != nil {
		t.Fatalf("InitState: %v", err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	h := sim.NewHarness(inst, clock)
	if err := h.ApplyReset(sim.ResetCycles); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	frozen := m.FrozenInputs()
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]uint64{}
		simIn := map[string]uint64{}
		for _, p := range m.FreeInputs() {
			v := rng.Uint64()
			if p.Width < 64 {
				v &= 1<<uint(p.Width) - 1
			}
			in[p.Name] = v
			simIn[p.Name] = v
		}
		for name, v := range frozen {
			simIn[name] = v
		}
		var fOut map[string]uint64
		st, fOut = stepConcrete(t, m, st, in)
		sOut, err := h.Cycle(simIn)
		if err != nil {
			t.Fatalf("sim cycle %d: %v", cyc, err)
		}
		for name, v := range sOut {
			if fOut[name] != v {
				t.Fatalf("cycle %d output %s: formal=%#x sim=%#x\n%s", cyc, name, fOut[name], v, src)
			}
		}
	}
	// Full-arena check: every signal of the folded symbolic state must
	// match the simulator's arena.
	d := prog.Design()
	for i := 0; i < d.NumSignals(); i++ {
		sv := d.Signal(i)
		got, ok := m.AIG().ConstVal(st.vals[i])
		if !ok {
			t.Fatalf("signal %s stayed symbolic under constant stimulus", sv.Name)
		}
		want := inst.Get(sv.Name)
		if sv.Width > 64 {
			continue
		}
		if got != want {
			t.Fatalf("final state %s: formal=%#x sim=%#x", sv.Name, got, want)
		}
		if sv.IsMem {
			for w := 0; w < sv.Depth; w++ {
				gw, _ := m.AIG().ConstVal(st.mems[i][w])
				if ww := inst.GetMem(sv.Name, w); gw != ww {
					t.Fatalf("final mem %s[%d]: formal=%#x sim=%#x", sv.Name, w, gw, ww)
				}
			}
		}
	}
}

// TestBlastMatchesSimHandwritten cross-validates the symbolic executor
// against the simulator on hand-written designs covering the construct
// classes: sequential state, async reset folding, memories with symbolic
// addresses, case/if guards, part selects, concats, for loops, division,
// shifts and bit writes.
func TestBlastMatchesSimHandwritten(t *testing.T) {
	cases := []struct {
		name, src, top, clock string
	}{
		{"counter", `module c(input clk, input rst_n, input en, output reg [7:0] q);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 8'd0;
        else if (en) q <= q + 8'd1;
    end
endmodule
`, "c", "clk"},
		{"comb_ops", `module m(input [7:0] a, input [7:0] b, output [7:0] y, output [7:0] z, output p);
    assign y = (a + b) * 8'd3 - (a ^ b);
    assign z = (b == 8'd0) ? 8'd255 : a / b + a % b;
    assign p = ^a & (a < b) | &b;
endmodule
`, "m", ""},
		{"mem_rw", `module m(input clk, input we, input [2:0] wa, input [2:0] ra, input [7:0] wd, output [7:0] rd);
    reg [7:0] mem [0:7];
    assign rd = mem[ra];
    always @(posedge clk) begin
        if (we) mem[wa] <= wd;
    end
endmodule
`, "m", "clk"},
		{"case_fsm", `module f(input clk, input rst_n, input [1:0] cmd, output reg [3:0] state, output [3:0] nxt);
    reg [3:0] ns;
    always @(*) begin
        ns = state;
        case (cmd)
            2'd0: ns = 4'd1;
            2'd1: if (state < 4'd8) ns = state + 4'd2;
            2'd2: ns = {state[2:0], state[3]};
            default: ns = 4'd0;
        endcase
    end
    assign nxt = ns;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) state <= 4'd0;
        else state <= ns;
    end
endmodule
`, "f", "clk"},
		{"for_shift", `module m(input [7:0] a, input [2:0] n, output [7:0] y, output [7:0] w);
    integer i;
    reg [7:0] acc;
    always @(*) begin
        acc = 8'd0;
        for (i = 0; i < 8; i = i + 1) begin
            acc = acc + (a >> i);
        end
    end
    assign y = acc;
    assign w = (a << n) | (a >> n);
endmodule
`, "m", ""},
		{"bit_writes", `module m(input clk, input [2:0] sel, input d, output reg [7:0] q, output [3:0] part);
    always @(posedge clk) begin
        q[sel] <= d;
        q[7] <= ~d;
    end
    assign part = q[5:2];
endmodule
`, "m", "clk"},
		{"concat_lhs", `module m(input [7:0] a, input [7:0] b, output [7:0] s, output c);
    assign {c, s} = a + b;
endmodule
`, "m", ""},
		{"negedge_proc", `module m(input clk, input [3:0] d, output reg [3:0] qp, output reg [3:0] qn);
    always @(posedge clk) qp <= d;
    always @(negedge clk) qn <= qp + 4'd1;
endmodule
`, "m", "clk"},
		{"hierarchy", `module add4(input [3:0] x, input [3:0] y, output [3:0] s);
    assign s = x + y;
endmodule
module m(input clk, input [3:0] a, input [3:0] b, output reg [3:0] r);
    wire [3:0] s1;
    add4 u1(.x(a), .y(b), .s(s1));
    always @(posedge clk) r <= s1;
endmodule
`, "m", "clk"},
		{"blocking_seq", `module m(input clk, input [3:0] d, output reg [3:0] q, output reg [3:0] r);
    reg [3:0] tmp;
    always @(posedge clk) begin
        tmp = d + 4'd1;
        q <= tmp;
        r <= tmp + q;
    end
endmodule
`, "m", "clk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crossValidate(t, tc.src, tc.top, tc.clock, 24, 42)
		})
	}
}

// TestBlastUnsupported pins the support gate: event-backend programs,
// fallback designs and oversized memories are refused with
// ErrUnsupported, not mis-modeled.
func TestBlastUnsupported(t *testing.T) {
	src := `module m(input clk, input d, output reg q);
    always @(posedge clk) q <= d;
endmodule
`
	pe, err := sim.CompileSource(src, "m", sim.BackendEventDriven)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelOpts(pe, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("event backend: err = %v, want ErrUnsupported", err)
	}

	fallback := `module m(input clk, input a, input b, output reg q);
    wire g = clk & a;
    always @(posedge g) q <= b;
endmodule
`
	pf, err := sim.CompileSource(fallback, "m", sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Levelized() {
		t.Fatal("gated-clock fixture unexpectedly levelized")
	}
	if _, err := NewModelOpts(pf, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("fallback design: err = %v, want ErrUnsupported", err)
	}

	bigmem := `module m(input clk, input [9:0] wa, input [63:0] wd, output [63:0] rd);
    reg [63:0] mem [0:1023];
    assign rd = mem[wa];
    always @(posedge clk) mem[wa] <= wd;
endmodule
`
	pm, err := sim.CompileSource(bigmem, "m", sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelOpts(pm, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("oversized memory: err = %v, want ErrUnsupported", err)
	}

	dataEdge := `module m(input clk, input go, input d, output reg q);
    always @(posedge go) q <= d;
endmodule
`
	pd, err := sim.CompileSource(dataEdge, "m", sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelOpts(pd, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("data-input edge trigger: err = %v, want ErrUnsupported", err)
	}
}
