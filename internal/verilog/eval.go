package verilog

import "fmt"

// ConstEnv maps parameter names to values for constant evaluation.
type ConstEnv map[string]int64

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EvalConst evaluates a compile-time constant expression (parameter values,
// range bounds). It returns an error for anything not constant.
func EvalConst(e Expr, env ConstEnv) (int64, error) {
	switch v := e.(type) {
	case *Number:
		return int64(v.Value), nil
	case *Ident:
		if val, ok := env[v.Name]; ok {
			return val, nil
		}
		return 0, fmt.Errorf("verilog: %q is not a constant (line %d)", v.Name, v.Line)
	case *Unary:
		x, err := EvalConst(v.X, env)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -x, nil
		case "+":
			return x, nil
		case "~":
			return ^x, nil
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("verilog: unary %q not constant-foldable (line %d)", v.Op, v.Line)
	case *Binary:
		x, err := EvalConst(v.X, env)
		if err != nil {
			return 0, err
		}
		y, err := EvalConst(v.Y, env)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return x + y, nil
		case "-":
			return x - y, nil
		case "*":
			return x * y, nil
		case "/":
			if y == 0 {
				return 0, fmt.Errorf("verilog: constant division by zero (line %d)", v.Line)
			}
			return x / y, nil
		case "%":
			if y == 0 {
				return 0, fmt.Errorf("verilog: constant modulo by zero (line %d)", v.Line)
			}
			return x % y, nil
		case "<<":
			return x << uint(y&63), nil
		case ">>":
			return x >> uint(y&63), nil
		case "&":
			return x & y, nil
		case "|":
			return x | y, nil
		case "^":
			return x ^ y, nil
		case "==":
			return b2i(x == y), nil
		case "!=":
			return b2i(x != y), nil
		case "<":
			return b2i(x < y), nil
		case ">":
			return b2i(x > y), nil
		case "<=":
			return b2i(x <= y), nil
		case ">=":
			return b2i(x >= y), nil
		case "&&":
			return b2i(x != 0 && y != 0), nil
		case "||":
			return b2i(x != 0 || y != 0), nil
		}
		return 0, fmt.Errorf("verilog: binary %q not constant-foldable (line %d)", v.Op, v.Line)
	case *Ternary:
		c, err := EvalConst(v.Cond, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return EvalConst(v.Then, env)
		}
		return EvalConst(v.Else, env)
	}
	return 0, fmt.Errorf("verilog: expression is not constant")
}

// RangeWidth computes the bit width of a [MSB:LSB] range under env.
// A nil range is width 1.
func RangeWidth(r *Range, env ConstEnv) (int, error) {
	if r == nil {
		return 1, nil
	}
	msb, err := EvalConst(r.MSB, env)
	if err != nil {
		return 0, err
	}
	lsb, err := EvalConst(r.LSB, env)
	if err != nil {
		return 0, err
	}
	w := msb - lsb
	if w < 0 {
		w = -w
	}
	w++
	if w > 64 {
		return 0, fmt.Errorf("verilog: range width %d exceeds 64-bit simulator limit", w)
	}
	return int(w), nil
}

// WalkExpr calls fn for e and every sub-expression, pre-order. fn returning
// false prunes the subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *Unary:
		WalkExpr(v.X, fn)
	case *Binary:
		WalkExpr(v.X, fn)
		WalkExpr(v.Y, fn)
	case *Ternary:
		WalkExpr(v.Cond, fn)
		WalkExpr(v.Then, fn)
		WalkExpr(v.Else, fn)
	case *Index:
		WalkExpr(v.X, fn)
		WalkExpr(v.Index, fn)
	case *PartSelect:
		WalkExpr(v.X, fn)
		WalkExpr(v.MSB, fn)
		WalkExpr(v.LSB, fn)
	case *Concat:
		for _, p := range v.Parts {
			WalkExpr(p, fn)
		}
	case *Repl:
		WalkExpr(v.Count, fn)
		WalkExpr(v.Value, fn)
	}
}

// WalkStmt calls fn for s and every sub-statement, pre-order. fn returning
// false prunes the subtree.
func WalkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch v := s.(type) {
	case *Block:
		for _, st := range v.Stmts {
			WalkStmt(st, fn)
		}
	case *If:
		WalkStmt(v.Then, fn)
		WalkStmt(v.Else, fn)
	case *Case:
		for _, it := range v.Items {
			WalkStmt(it.Body, fn)
		}
	case *For:
		WalkStmt(v.Body, fn)
	}
}

// ExprIdents collects the distinct identifier names referenced by e, in
// first-appearance order.
func ExprIdents(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	WalkExpr(e, func(x Expr) bool {
		if id, ok := x.(*Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			names = append(names, id.Name)
		}
		return true
	})
	return names
}

// LHSTargets returns the signal names assigned by an l-value expression
// (identifier, bit/part select target, or each element of a concatenation).
func LHSTargets(e Expr) []string {
	switch v := e.(type) {
	case *Ident:
		return []string{v.Name}
	case *Index:
		return LHSTargets(v.X)
	case *PartSelect:
		return LHSTargets(v.X)
	case *Concat:
		var out []string
		for _, p := range v.Parts {
			out = append(out, LHSTargets(p)...)
		}
		return out
	}
	return nil
}

// Mask is the value mask of a w-bit vector: its low w bits set, all 64
// when w >= 64. It stays small enough to inline, since the interpreter
// masks every operation's result with it.
func Mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// WidthScope is what SelfWidth and TargetWidth need from an engine: how
// it resolves a name and how it evaluates a constant operand. Each
// engine supplies its own; the width rule itself lives only here.
type WidthScope interface {
	// IsParam reports whether name reads as a 32-bit constant.
	IsParam(name string) bool
	// Signal returns the width of a declared signal (the word width of a
	// memory) and whether it is a memory; ok is false for an unknown name.
	Signal(name string) (width int, isMem, ok bool)
	// Const evaluates a part-select bound or replication count; ok is
	// false when the engine cannot evaluate it.
	Const(e Expr) (v int64, ok bool)
}

// SelfWidth is the self-determined width of expression e: literals carry
// their size (32 bits unsized), parameters are 32 bits, reductions,
// comparisons and logical operators are 1 bit, a shift takes its left
// operand's width, other operators the widest operand's, and a signal,
// bit select or part-select reads at its TargetWidth. A part-select or
// replication whose bound or count does not evaluate is 1 bit wide and
// makes static false: the width then depends on values the scope could
// not evaluate.
func SelfWidth[S WidthScope](e Expr, sc S) (w int, static bool) {
	switch v := e.(type) {
	case *Number:
		if v.Width > 0 {
			return v.Width, true
		}
		return 32, true
	case *Ident:
		if sc.IsParam(v.Name) {
			return 32, true
		}
		// TargetWidth's name case, inlined: names are the interpreter's
		// most frequent width query.
		if w, _, ok := sc.Signal(v.Name); ok {
			return w, true
		}
		return 1, true
	case *Unary:
		switch v.Op {
		case "!", "&", "|", "^", "~&", "~|", "~^":
			return 1, true
		}
		return SelfWidth(v.X, sc)
	case *Binary:
		switch v.Op {
		case "==", "!=", "===", "!==", "<", ">", "<=", ">=", "&&", "||":
			return 1, true
		case "<<", ">>", "<<<", ">>>":
			return SelfWidth(v.X, sc)
		}
		wx, sx := SelfWidth(v.X, sc)
		wy, sy := SelfWidth(v.Y, sc)
		return max(wx, wy), sx && sy
	case *Ternary:
		wt, st := SelfWidth(v.Then, sc)
		we, se := SelfWidth(v.Else, sc)
		return max(wt, we), st && se
	case *Index, *PartSelect:
		return TargetWidth(e, sc)
	case *Concat:
		total, static := 0, true
		for _, p := range v.Parts {
			w, s := SelfWidth(p, sc)
			total, static = total+w, static && s
		}
		return total, static
	case *Repl:
		n, ok := sc.Const(v.Count)
		if !ok {
			return 1, false
		}
		w, static := SelfWidth(v.Value, sc)
		return int(n) * w, static
	}
	return 1, true
}

// TargetWidth is the declared width of assignment target lhs: a signal's
// width, a memory word's width, 1 bit for a bit select, the span of a
// part-select's bounds (in either order) and the sum over a
// concatenation. Anything else is 1 bit. static is as for SelfWidth.
func TargetWidth[S WidthScope](lhs Expr, sc S) (w int, static bool) {
	switch l := lhs.(type) {
	case *Ident:
		if w, _, ok := sc.Signal(l.Name); ok {
			return w, true
		}
	case *Index:
		if id, ok := l.X.(*Ident); ok {
			if w, isMem, ok := sc.Signal(id.Name); ok && isMem {
				return w, true
			}
		}
	case *PartSelect:
		msb, ok1 := sc.Const(l.MSB)
		lsb, ok2 := sc.Const(l.LSB)
		if !ok1 || !ok2 {
			return 1, false
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		return int(msb-lsb) + 1, true
	case *Concat:
		total, static := 0, true
		for _, p := range l.Parts {
			w, s := TargetWidth(p, sc)
			total, static = total+w, static && s
		}
		return total, static
	}
	return 1, true
}

// ModuleParams evaluates all parameter declarations of m in order,
// returning the resulting constant environment.
func ModuleParams(m *Module) (ConstEnv, error) {
	env := ConstEnv{}
	for _, it := range m.Items {
		if pd, ok := it.(*ParamDecl); ok {
			v, err := EvalConst(pd.Value, env)
			if err != nil {
				return env, fmt.Errorf("verilog: parameter %s: %w", pd.Name, err)
			}
			env[pd.Name] = v
		}
	}
	return env, nil
}
