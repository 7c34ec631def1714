package sim

import (
	"testing"

	"uvllm/internal/verilog"
)

func mustSim(t *testing.T, src, top string) *Instance {
	t.Helper()
	s, err := CompileAndNew(src, top)
	if err != nil {
		t.Fatalf("CompileAndNew: %v", err)
	}
	return s
}

func settle(t *testing.T, s *Instance) {
	t.Helper()
	if err := s.Settle(); err != nil {
		t.Fatalf("Settle: %v", err)
	}
}

func TestCombinationalAssign(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [7:0] y);
assign y = a + b;
endmodule`, "m")
	s.Set("a", 30)
	s.Set("b", 12)
	settle(t, s)
	if got := s.Get("y"); got != 42 {
		t.Errorf("y = %d, want 42", got)
	}
	// Truncation at declared width.
	s.Set("a", 200)
	s.Set("b", 100)
	settle(t, s)
	if got := s.Get("y"); got != (300 & 0xFF) {
		t.Errorf("y = %d, want %d", got, 300&0xFF)
	}
}

func TestCarryOutViaConcatLHS(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [7:0] sum, output co);
assign {co, sum} = a + b;
endmodule`, "m")
	s.Set("a", 200)
	s.Set("b", 100)
	settle(t, s)
	if got := s.Get("sum"); got != 44 {
		t.Errorf("sum = %d, want 44", got)
	}
	if got := s.Get("co"); got != 1 {
		t.Errorf("co = %d, want 1", got)
	}
}

func TestContextWidthExtension(t *testing.T) {
	// 9-bit LHS must see the carry of an 8-bit + 8-bit addition.
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [8:0] full);
assign full = a + b;
endmodule`, "m")
	s.Set("a", 255)
	s.Set("b", 255)
	settle(t, s)
	if got := s.Get("full"); got != 510 {
		t.Errorf("full = %d, want 510", got)
	}
}

func TestSubtractionWrapsAtContextWidth(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [7:0] d, output eq);
assign d = a - b;
assign eq = (a - b) == 8'hFF;
endmodule`, "m")
	s.Set("a", 1)
	s.Set("b", 2)
	settle(t, s)
	if got := s.Get("d"); got != 255 {
		t.Errorf("d = %d, want 255", got)
	}
	if got := s.Get("eq"); got != 1 {
		t.Errorf("eq = %d, want 1 (8-bit wraparound)", got)
	}
}

func TestBitwiseNotMasked(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, output [7:0] y, output z);
assign y = ~a;
assign z = (~a == 8'hF0);
endmodule`, "m")
	s.Set("a", 0x0F)
	settle(t, s)
	if got := s.Get("y"); got != 0xF0 {
		t.Errorf("y = %#x, want 0xF0", got)
	}
	if got := s.Get("z"); got != 1 {
		t.Errorf("z = %d, want 1", got)
	}
}

func TestReductions(t *testing.T) {
	s := mustSim(t, `module m(input [3:0] a, output rand_, output ror_, output rxor_);
assign rand_ = &a;
assign ror_ = |a;
assign rxor_ = ^a;
endmodule`, "m")
	cases := []struct{ a, and, or, xor uint64 }{
		{0b0000, 0, 0, 0},
		{0b1111, 1, 1, 0},
		{0b1010, 0, 1, 0},
		{0b1000, 0, 1, 1},
	}
	for _, c := range cases {
		s.Set("a", c.a)
		settle(t, s)
		if s.Get("rand_") != c.and || s.Get("ror_") != c.or || s.Get("rxor_") != c.xor {
			t.Errorf("a=%04b: (&,|,^) = (%d,%d,%d), want (%d,%d,%d)", c.a,
				s.Get("rand_"), s.Get("ror_"), s.Get("rxor_"), c.and, c.or, c.xor)
		}
	}
}

func TestSequentialCounter(t *testing.T) {
	src := `module counter(input clk, input rst_n, input en, output reg [7:0] count);
always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
        count <= 8'd0;
    end else if (en) begin
        count <= count + 8'd1;
    end
end
endmodule`
	s := mustSim(t, src, "counter")
	h := NewHarness(s, "clk")
	if err := h.ApplyReset(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("count"); got != 0 {
		t.Fatalf("count after reset = %d", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := h.Cycle(map[string]uint64{"en": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Get("count"); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	// Disabled: holds value.
	if _, err := h.Cycle(map[string]uint64{"en": 0}); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("count"); got != 5 {
		t.Errorf("count after hold = %d, want 5", got)
	}
}

func TestAsyncResetMidOperation(t *testing.T) {
	src := `module r(input clk, input rst_n, output reg [3:0] q);
always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else q <= q + 4'd1;
end
endmodule`
	s := mustSim(t, src, "r")
	h := NewHarness(s, "clk")
	h.ApplyReset(1)
	for i := 0; i < 3; i++ {
		h.Cycle(nil)
	}
	if got := s.Get("q"); got != 3 {
		t.Fatalf("q = %d, want 3", got)
	}
	// Async reset asserts without a clock edge.
	s.Set("rst_n", 0)
	settle(t, s)
	if got := s.Get("q"); got != 0 {
		t.Errorf("q after async reset = %d, want 0", got)
	}
}

func TestNonBlockingSwap(t *testing.T) {
	src := `module swap(input clk, output reg [3:0] x, output reg [3:0] y);
initial begin
    x = 4'd1;
    y = 4'd2;
end
always @(posedge clk) begin
    x <= y;
    y <= x;
end
endmodule`
	s := mustSim(t, src, "swap")
	h := NewHarness(s, "clk")
	if s.Get("x") != 1 || s.Get("y") != 2 {
		t.Fatalf("initial x,y = %d,%d", s.Get("x"), s.Get("y"))
	}
	h.Cycle(nil)
	if s.Get("x") != 2 || s.Get("y") != 1 {
		t.Errorf("after swap x,y = %d,%d, want 2,1", s.Get("x"), s.Get("y"))
	}
}

func TestBlockingInSeqBlockOrder(t *testing.T) {
	// Blocking assignments in sequential code propagate within the cycle.
	src := `module b(input clk, input [3:0] d, output reg [3:0] q);
reg [3:0] tmp;
always @(posedge clk) begin
    tmp = d + 4'd1;
    q <= tmp;
end
endmodule`
	s := mustSim(t, src, "b")
	h := NewHarness(s, "clk")
	h.Cycle(map[string]uint64{"d": 4})
	if got := s.Get("q"); got != 5 {
		t.Errorf("q = %d, want 5", got)
	}
}

func TestCaseStatement(t *testing.T) {
	src := `module mux4(input [1:0] sel, input [3:0] d, output reg y);
always @(*) begin
    case (sel)
        2'd0: y = d[0];
        2'd1: y = d[1];
        2'd2: y = d[2];
        default: y = d[3];
    endcase
end
endmodule`
	s := mustSim(t, src, "mux4")
	s.Set("d", 0b0110)
	for sel, want := range []uint64{0, 1, 1, 0} {
		s.Set("sel", uint64(sel))
		settle(t, s)
		if got := s.Get("y"); got != want {
			t.Errorf("sel=%d: y = %d, want %d", sel, got, want)
		}
	}
}

func TestForLoopUnrolledAtRuntime(t *testing.T) {
	src := `module p(input [7:0] a, output reg par);
integer i;
always @(*) begin
    par = 1'b0;
    for (i = 0; i < 8; i = i + 1) begin
        par = par ^ a[i];
    end
end
endmodule`
	s := mustSim(t, src, "p")
	s.Set("a", 0b10110100)
	settle(t, s)
	if got := s.Get("par"); got != 0 {
		t.Errorf("par = %d, want 0", got)
	}
	s.Set("a", 0b10110101)
	settle(t, s)
	if got := s.Get("par"); got != 1 {
		t.Errorf("par = %d, want 1", got)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	src := `module ram(input clk, input we, input [3:0] addr, input [7:0] din, output reg [7:0] dout);
reg [7:0] mem [0:15];
always @(posedge clk) begin
    if (we) mem[addr] <= din;
    dout <= mem[addr];
end
endmodule`
	s := mustSim(t, src, "ram")
	h := NewHarness(s, "clk")
	h.Cycle(map[string]uint64{"we": 1, "addr": 3, "din": 99})
	if got := s.GetMem("mem", 3); got != 99 {
		t.Fatalf("mem[3] = %d, want 99", got)
	}
	// Read-after-write: dout sees the old value on the write cycle (NBA),
	// the new value one cycle later.
	h.Cycle(map[string]uint64{"we": 0, "addr": 3})
	if got := s.Get("dout"); got != 99 {
		t.Errorf("dout = %d, want 99", got)
	}
}

func TestHierarchicalInstance(t *testing.T) {
	src := `module half_adder(input a, input b, output s, output c);
assign s = a ^ b;
assign c = a & b;
endmodule
module full_adder(input a, input b, input cin, output sum, output cout);
wire s1, c1, c2;
half_adder ha1 (.a(a), .b(b), .s(s1), .c(c1));
half_adder ha2 (.a(s1), .b(cin), .s(sum), .c(c2));
assign cout = c1 | c2;
endmodule`
	s := mustSim(t, src, "full_adder")
	for v := uint64(0); v < 8; v++ {
		a, b, cin := v&1, (v>>1)&1, (v>>2)&1
		s.Set("a", a)
		s.Set("b", b)
		s.Set("cin", cin)
		settle(t, s)
		total := a + b + cin
		if got := s.Get("sum"); got != total&1 {
			t.Errorf("a=%d b=%d cin=%d: sum=%d", a, b, cin, got)
		}
		if got := s.Get("cout"); got != total>>1 {
			t.Errorf("a=%d b=%d cin=%d: cout=%d", a, b, cin, got)
		}
	}
	// Internal hierarchical signals visible.
	if !s.Has("ha1.s") {
		t.Error("hierarchical name ha1.s missing")
	}
}

func TestParameterOverride(t *testing.T) {
	src := `module inc(input [7:0] a, output [7:0] y);
parameter STEP = 1;
assign y = a + STEP;
endmodule
module top(input [7:0] a, output [7:0] y);
inc #(.STEP(5)) u (.a(a), .y(y));
endmodule`
	s := mustSim(t, src, "top")
	s.Set("a", 10)
	settle(t, s)
	if got := s.Get("y"); got != 15 {
		t.Errorf("y = %d, want 15", got)
	}
}

func TestIncompleteSensitivityMisbehaves(t *testing.T) {
	// always @(a) with y = a & b must NOT react to b-only changes: the
	// simulator honors buggy sensitivity lists so the fault is observable.
	src := `module m(input a, input b, output reg y);
always @(a) begin
    y = a & b;
end
endmodule`
	s := mustSim(t, src, "m")
	s.Set("a", 1)
	s.Set("b", 1)
	settle(t, s)
	if got := s.Get("y"); got != 1 {
		t.Fatalf("y = %d, want 1", got)
	}
	s.Set("b", 0) // y should stay stale at 1
	settle(t, s)
	if got := s.Get("y"); got != 1 {
		t.Errorf("y = %d after b change; buggy list should keep it stale", got)
	}
	s.Set("a", 0)
	settle(t, s)
	if got := s.Get("y"); got != 0 {
		t.Errorf("y = %d after a change, want 0", got)
	}
}

func TestOscillationDetected(t *testing.T) {
	// Stable while a=0; a ring oscillator once a=1.
	src := `module osc(input a, output w);
wire x;
assign x = a ? ~x : 1'b0;
assign w = x;
endmodule`
	s, err := CompileAndNew(src, "osc")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s.Set("a", 1)
	if err := s.Settle(); err == nil {
		t.Error("oscillating design settled without error")
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	if _, err := CompileAndNew("module m(input a, output w);\nassign w = a\nendmodule", "m"); err == nil {
		t.Error("syntax error not reported by CompileAndNew")
	}
	if _, err := CompileAndNew("module m(input a, output w);\nassign w = a;\nendmodule", "nosuch"); err == nil {
		t.Error("unknown top module not reported")
	}
}

func TestTernaryAndShifts(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input s, output [7:0] y, output [7:0] l, output [7:0] r);
assign y = s ? a : 8'hAA;
assign l = a << 2;
assign r = a >> 2;
endmodule`, "m")
	s.Set("a", 0x81)
	s.Set("s", 0)
	settle(t, s)
	if got := s.Get("y"); got != 0xAA {
		t.Errorf("y = %#x, want 0xAA", got)
	}
	s.Set("s", 1)
	settle(t, s)
	if got := s.Get("y"); got != 0x81 {
		t.Errorf("y = %#x, want 0x81", got)
	}
	if got := s.Get("l"); got != 0x04 {
		t.Errorf("l = %#x, want 0x04 (shift truncates at 8 bits)", got)
	}
	if got := s.Get("r"); got != 0x20 {
		t.Errorf("r = %#x, want 0x20", got)
	}
}

func TestReplicationAndPartSelect(t *testing.T) {
	s := mustSim(t, `module m(input [3:0] a, output [7:0] y, output [1:0] hi);
assign y = {2{a}};
assign hi = a[3:2];
endmodule`, "m")
	s.Set("a", 0b1011)
	settle(t, s)
	if got := s.Get("y"); got != 0b10111011 {
		t.Errorf("y = %#b, want 10111011", got)
	}
	if got := s.Get("hi"); got != 0b10 {
		t.Errorf("hi = %#b, want 10", got)
	}
}

func TestDivModByZero(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
assign q = a / b;
assign r = a % b;
endmodule`, "m")
	s.Set("a", 42)
	s.Set("b", 0)
	settle(t, s)
	if s.Get("q") != 0 || s.Get("r") != 0 {
		t.Errorf("div/mod by zero = %d,%d, want 0,0", s.Get("q"), s.Get("r"))
	}
	s.Set("b", 5)
	settle(t, s)
	if s.Get("q") != 8 || s.Get("r") != 2 {
		t.Errorf("42/5 = %d rem %d", s.Get("q"), s.Get("r"))
	}
}

func TestWaveformRecording(t *testing.T) {
	src := `module c(input clk, input rst_n, output reg [3:0] q);
always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else q <= q + 4'd1;
end
endmodule`
	s := mustSim(t, src, "c")
	h := NewHarness(s, "clk")
	h.ApplyReset(1)
	for i := 0; i < 3; i++ {
		h.Cycle(nil)
	}
	if h.Wave.Cycles() != 4 {
		t.Fatalf("wave cycles = %d, want 4", h.Wave.Cycles())
	}
	if got := h.Wave.At("q", 3); got != 3 {
		t.Errorf("wave q@3 = %d, want 3", got)
	}
	vals := h.Wave.ValuesAt(2)
	if vals["q"] != 2 {
		t.Errorf("ValuesAt(2)[q] = %d, want 2", vals["q"])
	}
}

// TestWaveformReserve: after Reserve(n), n recorded rows allocate
// nothing, and the rows already recorded are kept.
func TestWaveformReserve(t *testing.T) {
	const n = 500
	w := NewWaveform([]string{"b", "a", "c"})
	w.recordRow([]uint64{7, 8, 9})
	w.Reserve(n)
	row := []uint64{1, 2, 3}
	// AllocsPerRun calls the function once to warm up, then once measured.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n/2; i++ {
			row[0] = uint64(i)
			w.recordRow(row)
		}
	})
	if allocs != 0 {
		t.Errorf("%d rows after Reserve(%d) allocated %.0f times, want 0", n, n, allocs)
	}
	if w.Cycles() != n+1 {
		t.Fatalf("cycles = %d, want %d", w.Cycles(), n+1)
	}
	if w.At("a", 0) != 7 || w.At("c", 0) != 9 || w.At("a", n) != n/2-1 || w.At("b", n) != 2 {
		t.Errorf("values = %v at 0, %v at %d", w.ValuesAt(0), w.ValuesAt(n), n)
	}
}

func TestFindClockAndReset(t *testing.T) {
	f := verilog.MustParse(`module m(input clk, input rst_n, input d, output reg q);
always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= d;
end
endmodule`)
	d, err := Elaborate(f, "m")
	if err != nil {
		t.Fatal(err)
	}
	if got := FindClock(d); got != "clk" {
		t.Errorf("FindClock = %q", got)
	}
	name, low := FindReset(d)
	if name != "rst_n" || !low {
		t.Errorf("FindReset = %q,%v", name, low)
	}
}

func TestSignalNamesAndPorts(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, output [7:0] y);
wire [7:0] mid;
assign mid = a;
assign y = mid;
endmodule`, "m")
	d := s.Design()
	if len(d.Inputs()) != 1 || d.Inputs()[0].Width != 8 {
		t.Errorf("Inputs = %+v", d.Inputs())
	}
	if len(d.Outputs()) != 1 || d.Outputs()[0].Name != "y" {
		t.Errorf("Outputs = %+v", d.Outputs())
	}
	names := d.SignalNames()
	if len(names) != 3 {
		t.Errorf("SignalNames = %v", names)
	}
}
