package sim

import (
	"testing"
	"testing/quick"

	"uvllm/internal/verilog"
)

// Property-based cross-checks of the simulator's arithmetic against Go's:
// the evaluation core must agree with two's-complement 64-bit arithmetic
// masked at declared widths.

func TestQuickAdderMatchesGo(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
assign {cout, sum} = a + b + {7'd0, cin};
endmodule`, "m")
	prop := func(a, b uint8, cin bool) bool {
		c := uint64(0)
		if cin {
			c = 1
		}
		s.Set("a", uint64(a))
		s.Set("b", uint64(b))
		s.Set("cin", c)
		if err := s.Settle(); err != nil {
			return false
		}
		total := uint64(a) + uint64(b) + c
		return s.Get("sum") == total&0xFF && s.Get("cout") == total>>8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtractionWraps(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [7:0] d);
assign d = a - b;
endmodule`, "m")
	prop := func(a, b uint8) bool {
		s.Set("a", uint64(a))
		s.Set("b", uint64(b))
		if err := s.Settle(); err != nil {
			return false
		}
		return s.Get("d") == uint64(a-b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDivIdentity(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [7:0] b, output [15:0] p, output [7:0] q, output [7:0] r);
assign p = a * b;
assign q = (b == 8'd0) ? 8'd0 : a / b;
assign r = (b == 8'd0) ? 8'd0 : a % b;
endmodule`, "m")
	prop := func(a, b uint8) bool {
		s.Set("a", uint64(a))
		s.Set("b", uint64(b))
		if err := s.Settle(); err != nil {
			return false
		}
		if s.Get("p") != uint64(a)*uint64(b) {
			return false
		}
		if b == 0 {
			return s.Get("q") == 0 && s.Get("r") == 0
		}
		// Division identity: a == q*b + r.
		return s.Get("q")*uint64(b)+s.Get("r") == uint64(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftConsistency(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r);
assign l = a << n;
assign r = a >> n;
endmodule`, "m")
	prop := func(a uint8, n3 uint8) bool {
		n := uint64(n3 % 8)
		s.Set("a", uint64(a))
		s.Set("n", n)
		if err := s.Settle(); err != nil {
			return false
		}
		return s.Get("l") == (uint64(a)<<n)&0xFF && s.Get("r") == uint64(a)>>n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickReductionsMatchBitLoop(t *testing.T) {
	s := mustSim(t, `module m(input [7:0] a, output x_and, output x_or, output x_xor);
assign x_and = &a;
assign x_or = |a;
assign x_xor = ^a;
endmodule`, "m")
	prop := func(a uint8) bool {
		s.Set("a", uint64(a))
		if err := s.Settle(); err != nil {
			return false
		}
		and, or, xor := uint64(1), uint64(0), uint64(0)
		for i := 0; i < 8; i++ {
			bit := uint64(a>>i) & 1
			and &= bit
			or |= bit
			xor ^= bit
		}
		return s.Get("x_and") == and && s.Get("x_or") == or && s.Get("x_xor") == xor
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickWidthMask(t *testing.T) {
	prop := func(w8 uint8) bool {
		w := int(w8 % 65)
		m := verilog.Mask(w)
		if w >= 64 {
			return m == ^uint64(0)
		}
		return m == (uint64(1)<<uint(w))-1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCounterNeverSkips: sequential invariant under random enables —
// the counter changes by exactly 0 or 1 (mod 4096) each cycle.
func TestQuickCounterNeverSkips(t *testing.T) {
	m := `module c(input clk, input rst_n, input en, output reg [11:0] count);
always @(posedge clk or negedge rst_n) begin
    if (!rst_n) count <= 12'd0;
    else if (en) count <= count + 12'd1;
end
endmodule`
	s := mustSim(t, m, "c")
	h := NewHarness(s, "clk")
	if err := h.ApplyReset(2); err != nil {
		t.Fatal(err)
	}
	prop := func(en bool) bool {
		before := s.Get("count")
		e := uint64(0)
		if en {
			e = 1
		}
		if _, err := h.Cycle(map[string]uint64{"en": e, "rst_n": 1}); err != nil {
			return false
		}
		after := s.Get("count")
		return after == (before+e)&0xFFF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
