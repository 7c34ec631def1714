package verilog

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// genExpr builds a random well-formed expression of bounded depth over the
// given identifiers.
func genExpr(r *rand.Rand, depth int, idents []string) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return &Ident{Name: idents[r.Intn(len(idents))]}
		}
		w := []int{0, 1, 4, 8}[r.Intn(4)]
		v := r.Uint64()
		if w > 0 {
			v &= (1 << uint(w)) - 1
			return &Number{Text: numText(w, v), Width: w, Value: v}
		}
		v &= 0xFFFF
		return &Number{Text: numText(0, v), Value: v}
	}
	switch r.Intn(6) {
	case 0:
		ops := []string{"!", "~", "-", "&", "|", "^"}
		return &Unary{Op: ops[r.Intn(len(ops))], X: genExpr(r, depth-1, idents)}
	case 1, 2:
		ops := []string{"+", "-", "*", "/", "&", "|", "^", "==", "!=", "<", ">", "<<", ">>", "&&", "||"}
		return &Binary{Op: ops[r.Intn(len(ops))], X: genExpr(r, depth-1, idents), Y: genExpr(r, depth-1, idents)}
	case 3:
		return &Ternary{Cond: genExpr(r, depth-1, idents), Then: genExpr(r, depth-1, idents), Else: genExpr(r, depth-1, idents)}
	case 4:
		parts := []Expr{genExpr(r, depth-1, idents)}
		for i := r.Intn(3); i > 0; i-- {
			parts = append(parts, genExpr(r, depth-1, idents))
		}
		return &Concat{Parts: parts}
	default:
		return &Index{X: &Ident{Name: idents[r.Intn(len(idents))]}, Index: genExpr(r, depth-1, idents)}
	}
}

func numText(w int, v uint64) string {
	if w == 0 {
		return ExprString(&Number{Width: 0, Value: v, Text: ""})
	}
	return ExprString(&Number{Width: w, Value: v, Text: ""})
}

func init() {
	// Numbers carry their text; synthesize canonical decimal text.
}

// TestQuickExprRoundTrip: printing a random expression and re-parsing it
// yields a tree that prints identically (print-parse-print fixpoint).
func TestQuickExprRoundTrip(t *testing.T) {
	idents := []string{"a", "b", "sel", "count"}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		e := genExpr(r, 3, idents)
		fixNumberText(e)
		s1 := ExprString(e)
		src := "module m(input a, input b, input sel, input count, output w);\nassign w = " + s1 + ";\nendmodule"
		f, errs := Parse(src)
		if len(errs) != 0 {
			t.Fatalf("generated expression does not parse: %q: %v", s1, errs[0])
		}
		ca, ok := f.Modules[0].Items[0].(*ContAssign)
		if !ok {
			t.Fatalf("no assign for %q", s1)
		}
		s2 := ExprString(ca.RHS)
		src2 := "module m(input a, input b, input sel, input count, output w);\nassign w = " + s2 + ";\nendmodule"
		f2, errs2 := Parse(src2)
		if len(errs2) != 0 {
			t.Fatalf("reprint does not parse: %q", s2)
		}
		s3 := ExprString(f2.Modules[0].Items[0].(*ContAssign).RHS)
		if s2 != s3 {
			t.Fatalf("print not a fixpoint:\n%s\n%s", s2, s3)
		}
	}
}

// fixNumberText fills canonical text for synthesized numbers.
func fixNumberText(e Expr) {
	WalkExpr(e, func(x Expr) bool {
		if n, ok := x.(*Number); ok && n.Text == "" {
			if n.Width == 0 {
				n.Text = ExprString(&Number{Text: decText(n.Value)})
			} else {
				n.Text = decWidthText(n.Width, n.Value)
			}
		}
		return true
	})
}

func decText(v uint64) string {
	return fmtUint(v)
}

func decWidthText(w int, v uint64) string {
	return fmtUint(uint64(w)) + "'d" + fmtUint(v)
}

func fmtUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestQuickLexerTotal: the lexer terminates and produces position-monotonic
// tokens for arbitrary byte strings (it must never panic on broken input —
// UVLLM lints deliberately corrupted code), and every token's text occurs
// in the input as written, non-ASCII bytes included.
func TestQuickLexerTotal(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			n := r.Intn(200)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Intn(256))
			}
			vs[0] = reflect.ValueOf(string(b))
		},
	}
	prop := func(s string) bool {
		toks := Lex(s)
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			return false
		}
		lastLine, lastCol := 0, 0
		for _, tk := range toks {
			if tk.Line < lastLine || (tk.Line == lastLine && tk.Col < lastCol) {
				return false
			}
			if !strings.Contains(s, tk.Text) {
				return false
			}
			lastLine, lastCol = tk.Line, tk.Col
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickParserTotal: the parser never panics and always terminates on
// arbitrary keyword soup.
func TestQuickParserTotal(t *testing.T) {
	words := []string{"module", "endmodule", "input", "output", "assign",
		"always", "begin", "end", "if", "else", "case", "endcase", "wire",
		"reg", "(", ")", ";", ",", "[", "]", "=", "<=", "a", "b", "8'hFF",
		"@", "posedge", "{", "}", "?", ":", "+", "1"}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		var b []byte
		for j := r.Intn(60); j > 0; j-- {
			b = append(b, []byte(words[r.Intn(len(words))])...)
			b = append(b, ' ')
		}
		Parse(string(b)) // must not panic or hang
	}
}

// TestQuickNumberLiteralMask: parsed sized literals always fit their width.
func TestQuickNumberLiteralMask(t *testing.T) {
	prop := func(w8 uint8, v uint64) bool {
		w := int(w8%63) + 1
		text := decWidthText(w, v%1000000)
		gw, gv, _, err := ParseNumberLiteral(text)
		if err != nil {
			return false
		}
		if gw != w {
			return false
		}
		return gv <= (uint64(1)<<uint(w))-1 || w == 64
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
