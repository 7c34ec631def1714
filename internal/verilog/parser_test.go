package verilog

import (
	"strings"
	"testing"
)

const goodAdder = `
module adder_8bit(
    input clk,
    input rst_n,
    input [7:0] a,
    input [7:0] b,
    output reg [7:0] sum,
    output reg carry
);
    wire [8:0] full;
    assign full = a + b;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) begin
            sum <= 8'b0;
            carry <= 1'b0;
        end else begin
            sum <= full[7:0];
            carry <= full[8];
        end
    end
endmodule
`

func TestParseGoodModule(t *testing.T) {
	f, errs := Parse(goodAdder)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(f.Modules) != 1 {
		t.Fatalf("got %d modules, want 1", len(f.Modules))
	}
	m := f.Modules[0]
	if m.Name != "adder_8bit" {
		t.Errorf("module name = %q", m.Name)
	}
	if len(m.Ports) != 6 {
		t.Fatalf("got %d ports, want 6: %+v", len(m.Ports), m.Ports)
	}
	if p := m.Port("sum"); p == nil || p.Dir != DirOutput || !p.IsReg || p.Range == nil {
		t.Errorf("port sum parsed wrong: %+v", p)
	}
	if got := len(m.InputPorts()); got != 4 {
		t.Errorf("inputs = %d, want 4", got)
	}
	var always *AlwaysBlock
	var assign *ContAssign
	for _, it := range m.Items {
		switch v := it.(type) {
		case *AlwaysBlock:
			always = v
		case *ContAssign:
			assign = v
		}
	}
	if assign == nil {
		t.Fatal("missing continuous assignment")
	}
	if always == nil || !always.Sens.Edged() {
		t.Fatal("missing edged always block")
	}
	blk, ok := always.Body.(*Block)
	if !ok || len(blk.Stmts) != 1 {
		t.Fatalf("always body shape wrong: %#v", always.Body)
	}
	iff, ok := blk.Stmts[0].(*If)
	if !ok || iff.Else == nil {
		t.Fatalf("if/else shape wrong: %#v", blk.Stmts[0])
	}
}

func TestParseParametersAndInstances(t *testing.T) {
	src := `
module top(input [7:0] x, output [7:0] y);
    parameter WIDTH = 8;
    localparam DEPTH = WIDTH * 2;
    wire [WIDTH-1:0] mid;
    sub #(.W(WIDTH)) u1 (.a(x), .b(mid));
    sub u2 (.a(mid), .b(y));
endmodule
module sub(input [7:0] a, output [7:0] b);
    parameter W = 8;
    assign b = a;
endmodule
`
	f, errs := Parse(src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(f.Modules) != 2 {
		t.Fatalf("got %d modules, want 2", len(f.Modules))
	}
	top := f.Module("top")
	var insts []*Instance
	for _, it := range top.Items {
		if in, ok := it.(*Instance); ok {
			insts = append(insts, in)
		}
	}
	if len(insts) != 2 {
		t.Fatalf("got %d instances, want 2", len(insts))
	}
	if insts[0].ModName != "sub" || insts[0].InstName != "u1" {
		t.Errorf("instance 0 = %s %s", insts[0].ModName, insts[0].InstName)
	}
	if len(insts[0].Params) != 1 || insts[0].Params[0].Port != "W" {
		t.Errorf("instance params wrong: %+v", insts[0].Params)
	}
	env, err := ModuleParams(top)
	if err != nil {
		t.Fatalf("ModuleParams: %v", err)
	}
	if env["WIDTH"] != 8 || env["DEPTH"] != 16 {
		t.Errorf("params = %v", env)
	}
}

func TestParseCaseAndFor(t *testing.T) {
	src := `
module m(input [1:0] sel, input [3:0] d, output reg q);
    integer i;
    always @(*) begin
        case (sel)
            2'b00: q = d[0];
            2'b01, 2'b10: q = d[1];
            default: q = d[3];
        endcase
        for (i = 0; i < 4; i = i + 1) begin
            q = q ^ d[i];
        end
    end
endmodule
`
	f, errs := Parse(src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	m := f.Modules[0]
	ab, ok := m.Items[1].(*AlwaysBlock)
	if !ok {
		t.Fatalf("item 1 is %T", m.Items[1])
	}
	blk := ab.Body.(*Block)
	cs, ok := blk.Stmts[0].(*Case)
	if !ok || len(cs.Items) != 3 {
		t.Fatalf("case shape wrong: %#v", blk.Stmts[0])
	}
	if cs.Items[2].Exprs != nil {
		t.Error("third case item should be default")
	}
	if len(cs.Items[1].Exprs) != 2 {
		t.Error("second case item should have two labels")
	}
	if _, ok := blk.Stmts[1].(*For); !ok {
		t.Fatalf("statement 1 is %T, want For", blk.Stmts[1])
	}
}

func TestParseExpressionsPrecedence(t *testing.T) {
	src := `module m(input a, input b, input c, output w);
assign w = a + b * c;
endmodule`
	f, errs := Parse(src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	ca := f.Modules[0].Items[0].(*ContAssign)
	add, ok := ca.RHS.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("top op = %#v, want +", ca.RHS)
	}
	mul, ok := add.Y.(*Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs of + is %#v, want *", add.Y)
	}
}

func TestParseConcatReplTernary(t *testing.T) {
	src := `module m(input [3:0] a, output [7:0] y, output [7:0] z, output p);
assign y = {a, 4'b0};
assign z = {2{a}};
assign p = (a == 4'd0) ? 1'b1 : 1'b0;
endmodule`
	f, errs := Parse(src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	items := f.Modules[0].Items
	if _, ok := items[0].(*ContAssign).RHS.(*Concat); !ok {
		t.Errorf("y rhs = %#v, want Concat", items[0].(*ContAssign).RHS)
	}
	if _, ok := items[1].(*ContAssign).RHS.(*Repl); !ok {
		t.Errorf("z rhs = %#v, want Repl", items[1].(*ContAssign).RHS)
	}
	if _, ok := items[2].(*ContAssign).RHS.(*Ternary); !ok {
		t.Errorf("p rhs = %#v, want Ternary", items[2].(*ContAssign).RHS)
	}
}

func TestParseMemoryDecl(t *testing.T) {
	src := `module m(input clk);
reg [7:0] mem [0:255];
endmodule`
	f, errs := Parse(src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	nd := f.Modules[0].Items[0].(*NetDecl)
	if nd.Names[0].ArrayRange == nil {
		t.Fatal("memory array range missing")
	}
	w, err := RangeWidth(nd.Range, nil)
	if err != nil || w != 8 {
		t.Errorf("word width = %d (%v), want 8", w, err)
	}
}

// --- Error recovery: every syntax fault class must yield at least one
// diagnostic while still producing a usable AST. ---

func TestParseMissingSemicolon(t *testing.T) {
	src := `module m(input a, output w);
assign w = a
endmodule`
	_, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("missing semicolon not reported")
	}
	if !strings.Contains(errs[0].Msg, "missing ';'") {
		t.Errorf("unexpected message: %v", errs[0])
	}
}

func TestParseMissingEnd(t *testing.T) {
	src := `module m(input clk, output reg q);
always @(posedge clk) begin
    q <= 1'b1;
endmodule`
	_, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("missing 'end' not reported")
	}
}

func TestParseMissingEndmodule(t *testing.T) {
	src := `module m(input a, output w);
assign w = a;
`
	_, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("missing 'endmodule' not reported")
	}
}

func TestParseKeywordTypo(t *testing.T) {
	src := `module m(input a, output w);
asign w = a;
endmodule`
	f, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("keyword typo not reported")
	}
	if !strings.Contains(errs[0].Msg, "typo") && !strings.Contains(errs[0].Msg, "unknown") {
		t.Errorf("unexpected message: %v", errs[0])
	}
	if len(f.Modules) != 1 {
		t.Fatal("module lost during recovery")
	}
}

func TestParseMalformedOperator(t *testing.T) {
	src := `module m(input clk, output reg q);
always @(posedge clk) begin
    q =< 1'b1;
end
endmodule`
	_, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("malformed operator not reported")
	}
	found := false
	for _, e := range errs {
		if strings.Contains(e.Msg, "=<") {
			found = true
		}
	}
	if !found {
		t.Errorf("no '=<' diagnostic in %v", errs)
	}
}

func TestParseMalformedLiteral(t *testing.T) {
	src := `module m(output [7:0] w);
assign w = 8'q3;
endmodule`
	_, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("malformed literal not reported")
	}
}

func TestParseRecoveryKeepsLaterItems(t *testing.T) {
	src := `module m(input a, input b, output w, output v);
assign w = ((a;
assign v = b;
endmodule`
	f, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("expected errors")
	}
	// The second assign must survive recovery.
	count := 0
	for _, it := range f.Modules[0].Items {
		if _, ok := it.(*ContAssign); ok {
			count++
		}
	}
	if count < 1 {
		t.Errorf("no assigns recovered, items=%d", len(f.Modules[0].Items))
	}
}

func TestParseErrorPositions(t *testing.T) {
	src := "module m(input a, output w);\nassign w = a\nendmodule"
	_, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("expected error")
	}
	if errs[0].Line != 3 { // reported at the endmodule that follows
		t.Errorf("error line = %d, want 3 (diagnostic: %v)", errs[0].Line, errs[0])
	}
}

func TestPrintRoundTrip(t *testing.T) {
	f, errs := Parse(goodAdder)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	out := Print(f)
	f2, errs2 := Parse(out)
	if len(errs2) != 0 {
		t.Fatalf("reparse errors: %v\nprinted:\n%s", errs2, out)
	}
	if len(f2.Modules) != 1 || f2.Modules[0].Name != "adder_8bit" {
		t.Fatal("round trip lost module")
	}
	if len(f2.Modules[0].Ports) != len(f.Modules[0].Ports) {
		t.Errorf("ports %d != %d after round trip", len(f2.Modules[0].Ports), len(f.Modules[0].Ports))
	}
	out2 := Print(f2)
	if out != out2 {
		t.Errorf("print not idempotent:\n%s\n---\n%s", out, out2)
	}
}

func TestExprHelpers(t *testing.T) {
	src := `module m(input [3:0] a, input [3:0] b, output [3:0] y);
assign y = (a & b) | {a[0], b[3:1]};
endmodule`
	f, errs := Parse(src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	ca := f.Modules[0].Items[0].(*ContAssign)
	ids := ExprIdents(ca.RHS)
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("ExprIdents = %v", ids)
	}
	if tg := LHSTargets(ca.LHS); len(tg) != 1 || tg[0] != "y" {
		t.Errorf("LHSTargets = %v", tg)
	}
}

func TestLooksLikeKeywordTypo(t *testing.T) {
	cases := []struct {
		ident, kw string
		want      bool
	}{
		{"alway", "always", true},
		{"moduel", "module", false}, // transposition is distance 2 in our scan
		{"asign", "assign", true},
		{"always", "always", false},
		{"foo", "module", false},
		{"modul", "module", true},
		{"modulee", "module", true},
	}
	for _, c := range cases {
		if got := looksLikeKeywordTypo(c.ident, c.kw); got != c.want {
			t.Errorf("looksLikeKeywordTypo(%q,%q) = %v, want %v", c.ident, c.kw, got, c.want)
		}
	}
}

func TestEvalConst(t *testing.T) {
	env := ConstEnv{"W": 8}
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"W - 1", 7},
		{"(W * 2) - 1", 15},
		{"1 << 4", 16},
		{"W > 4 ? 100 : 200", 100},
		{"-3 + 5", 2},
	}
	for _, c := range cases {
		f, errs := Parse("module m(output [" + c.src + ":0] w); endmodule")
		if len(errs) != 0 {
			t.Fatalf("parse %q: %v", c.src, errs)
		}
		got, err := EvalConst(f.Modules[0].Ports[0].Range.MSB, env)
		if err != nil {
			t.Errorf("EvalConst(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalConst(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvalConstErrors(t *testing.T) {
	f, errs := Parse("module m(input x, output [7:0] w); assign w = x; endmodule")
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	ca := f.Modules[0].Items[0].(*ContAssign)
	if _, err := EvalConst(ca.RHS, nil); err == nil {
		t.Error("EvalConst of non-constant should fail")
	}
}

// widthScope is a fake WidthScope: parameter P = 5, signals a[7:0] and
// b[3:0], and a memory mem of 16-bit words.
type widthScope struct{}

func (widthScope) IsParam(name string) bool { return name == "P" }

func (widthScope) Signal(name string) (int, bool, bool) {
	switch name {
	case "a":
		return 8, false, true
	case "b":
		return 4, false, true
	case "mem":
		return 16, true, true
	}
	return 0, false, false
}

func (widthScope) Const(e Expr) (int64, bool) {
	v, err := EvalConst(e, ConstEnv{"P": 5})
	return v, err == nil
}

// TestWidthRule checks SelfWidth and TargetWidth, one case per rule.
func TestWidthRule(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		target bool // src is an assignment target (TargetWidth)
		want   int
		static bool
	}{
		{"sized literal", "4'd3", false, 4, true},
		{"unsized literal", "3", false, 32, true},
		{"parameter", "P", false, 32, true},
		{"unknown name", "nosuch", false, 1, true},
		{"reduction", "&a", false, 1, true},
		{"comparison", "a == b", false, 1, true},
		{"shift takes left operand", "b << a", false, 4, true},
		{"max rule", "b + a", false, 8, true},
		{"ternary max rule", "a[0] ? b : a", false, 8, true},
		{"memory word", "mem[1]", false, 16, true},
		{"bit index", "a[1]", false, 1, true},
		{"reversed part-select", "a[2:5]", false, 4, true},
		{"parameter bound", "a[P:0]", false, 6, true},
		{"non-constant bound", "a[b:0]", false, 1, false},
		{"concatenation", "{a, b, 1'b1}", false, 13, true},
		{"replication", "{P{a[1:0]}}", false, 10, true},
		{"non-constant count", "{b{a}}", false, 1, false},
		{"not static inside concat", "{a, a[b:0]}", false, 9, false},
		{"target signal", "a", true, 8, true},
		{"target unknown", "nosuch", true, 1, true},
		{"target memory word", "mem[2]", true, 16, true},
		{"target bit", "a[3]", true, 1, true},
		{"target reversed part-select", "a[0:3]", true, 4, true},
		{"target concatenation", "{a, b[1:0]}", true, 10, true},
		{"target non-constant bound", "a[b:0]", true, 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lhs, rhs := "y", c.src
			if c.target {
				lhs, rhs = c.src, "0"
			}
			f, errs := Parse("module m(output y); assign " + lhs + " = " + rhs + "; endmodule")
			if len(errs) != 0 {
				t.Fatalf("parse %q: %v", c.src, errs)
			}
			ca := f.Modules[0].Items[0].(*ContAssign)
			var w int
			var static bool
			if c.target {
				w, static = TargetWidth(ca.LHS, widthScope{})
			} else {
				w, static = SelfWidth(ca.RHS, widthScope{})
			}
			if w != c.want || static != c.static {
				t.Errorf("width of %q = %d (static %v), want %d (static %v)", c.src, w, static, c.want, c.static)
			}
		})
	}
}
