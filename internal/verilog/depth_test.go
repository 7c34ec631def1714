package verilog

import (
	"strings"
	"testing"
)

// MaxDepth and ASTDepth expose the nesting cap and its measure to the
// external test package, which holds the pinned corpus.
const MaxDepth = maxDepth

// ASTDepth returns the most statement and expression nodes on one
// root-to-leaf path below any item of f, port ranges included: the
// depth maxDepth bounds.
func ASTDepth(f *SourceFile) int {
	var expr func(Expr) int
	expr = func(e Expr) int {
		switch v := e.(type) {
		case nil:
			return 0
		case *Unary:
			return 1 + expr(v.X)
		case *Binary:
			return 1 + max(expr(v.X), expr(v.Y))
		case *Ternary:
			return 1 + max(expr(v.Cond), expr(v.Then), expr(v.Else))
		case *Index:
			return 1 + max(expr(v.X), expr(v.Index))
		case *PartSelect:
			return 1 + max(expr(v.X), expr(v.MSB), expr(v.LSB))
		case *Concat:
			d := 0
			for _, p := range v.Parts {
				d = max(d, expr(p))
			}
			return 1 + d
		case *Repl:
			return 1 + max(expr(v.Count), expr(v.Value))
		}
		return 1
	}
	rng := func(r *Range) int {
		if r == nil {
			return 0
		}
		return max(expr(r.MSB), expr(r.LSB))
	}
	var stmt func(Stmt) int
	assign := func(a *Assign) int {
		if a == nil {
			return 0
		}
		return stmt(a)
	}
	stmt = func(s Stmt) int {
		switch v := s.(type) {
		case nil:
			return 0
		case *Block:
			d := 0
			for _, c := range v.Stmts {
				d = max(d, stmt(c))
			}
			return 1 + d
		case *If:
			return 1 + max(expr(v.Cond), stmt(v.Then), stmt(v.Else))
		case *Case:
			d := expr(v.Expr)
			for _, it := range v.Items {
				for _, e := range it.Exprs {
					d = max(d, expr(e))
				}
				d = max(d, stmt(it.Body))
			}
			return 1 + d
		case *For:
			return 1 + max(assign(v.Init), expr(v.Cond), assign(v.Step), stmt(v.Body))
		case *Assign:
			return 1 + max(expr(v.LHS), expr(v.RHS))
		}
		return 1
	}
	d := 0
	for _, m := range f.Modules {
		for _, p := range m.Ports {
			d = max(d, rng(p.Range))
		}
		for _, it := range m.Items {
			switch v := it.(type) {
			case *ContAssign:
				d = max(d, expr(v.LHS), expr(v.RHS))
			case *AlwaysBlock:
				d = max(d, stmt(v.Body))
			case *InitialBlock:
				d = max(d, stmt(v.Body))
			case *ParamDecl:
				d = max(d, expr(v.Value))
			case *NetDecl:
				d = max(d, rng(v.Range))
				for _, n := range v.Names {
					d = max(d, rng(n.ArrayRange), expr(n.Init))
				}
			case *Instance:
				for _, c := range append(append([]PortConn(nil), v.Params...), v.Conns...) {
					d = max(d, expr(c.Expr))
				}
			}
		}
	}
	return d
}

// nesting returns the nesting diagnostics among errs.
func nesting(errs []SyntaxError) int {
	n := 0
	for _, e := range errs {
		if strings.HasPrefix(e.Msg, "nesting deeper than") {
			n++
		}
	}
	return n
}

// TestNestingCap holds the parser's AST to maxDepth levels: each shape
// below parses cleanly at exactly maxDepth levels, and one level more
// yields one nesting error, no other diagnostic, an AST within the cap
// and the items after it. The unary chain is the parser's deepest
// recursion and the operator chain its deepest loop-built tree; without
// the cap both parse at any depth, and a deep enough one overflows the
// stack.
func TestNestingCap(t *testing.T) {
	unary := func(n int) string { return strings.Repeat("~", n-1) + "a" }
	chain := func(n int) string { return "a" + strings.Repeat("+a", n-1) }
	parens := func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }
	index := func(n int) string { return strings.Repeat("a[", n-1) + "a" + strings.Repeat("]", n-1) }
	concat := func(n int) string { return strings.Repeat("{", n-1) + "a" + strings.Repeat("}", n-1) }
	ternary := func(n int) string { return strings.Repeat("a ? b : ", n-1) + "a" }
	selects := func(n int) string { return "a" + strings.Repeat("[0]", n-1) }
	for _, tc := range []struct {
		name string
		expr func(levels int) string
	}{
		{"unary", unary}, {"chain", chain}, {"index", index}, {"concat", concat},
		{"ternary", ternary}, {"selects", selects},
		{"parens-around-chain", func(n int) string { return parens(maxDepth) + "+" + chain(n-1) }},
	} {
		for _, levels := range []int{maxDepth, maxDepth + 1} {
			src := "module m(input a, input b, output y);\n  assign y = " + tc.expr(levels) +
				";\n  assign y = b;\nendmodule\n"
			f, errs := Parse(src)
			wantErrs := 0
			if levels > maxDepth {
				wantErrs = 1
			}
			if len(errs) != wantErrs || nesting(errs) != wantErrs {
				t.Fatalf("%s at %d levels: %d errors (%d nesting), want %d: %v", tc.name, levels, len(errs), nesting(errs), wantErrs, errs[:min(len(errs), 3)])
			}
			if d := ASTDepth(f); d > maxDepth || levels <= maxDepth && d != levels {
				t.Fatalf("%s at %d levels: AST %d deep", tc.name, levels, d)
			}
			if len(f.Modules) != 1 || len(f.Modules[0].Items) != 2 {
				t.Fatalf("%s at %d levels: the item after the deep one was lost", tc.name, levels)
			}
		}
	}

	// Parentheses add no level but nest at most maxDepth deep.
	for _, n := range []int{maxDepth, maxDepth + 1} {
		_, errs := Parse("module m(input a, output y);\n  assign y = " + parens(n) + ";\nendmodule\n")
		if want := n - maxDepth; len(errs) != want || nesting(errs) != want {
			t.Fatalf("%d parentheses: %v", n, errs)
		}
	}

	// A statement needs room for its operands: statements nest at most
	// maxDepth-2 deep, and one past that is skipped whole, else branches
	// included.
	for _, tc := range []struct {
		name string
		body func(n int) string
	}{
		{"blocks", func(n int) string { return strings.Repeat("begin ", n-1) + "y = a;" + strings.Repeat(" end", n-1) }},
		{"else-if", func(n int) string { return strings.Repeat("if (a) y = a; else ", n-1) + "y = a;" }},
	} {
		for _, n := range []int{maxDepth - 2, maxDepth + 5} {
			f, errs := Parse("module m(input a, output reg y);\n  always @(*) " + tc.body(n) + "\n  assign y = a;\nendmodule\n")
			if want := min(n-(maxDepth-2), 1); len(errs) != want || nesting(errs) != want {
				t.Fatalf("%s, %d statements deep: %v", tc.name, n, errs[:min(len(errs), 3)])
			}
			if d := ASTDepth(f); d > maxDepth || len(f.Modules[0].Items) != 2 {
				t.Fatalf("%s, %d statements deep: AST %d deep, %d items", tc.name, n, d, len(f.Modules[0].Items))
			}
		}
	}
}
