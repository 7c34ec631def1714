package formal

import (
	"fmt"

	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// Symbolic expression evaluation, a literal-by-literal mirror of the
// interpreter's evaluator in internal/sim (eval, evalBinary): the same
// unsigned 64-bit arithmetic with masking at each context boundary, the
// same out-of-range and division-by-zero conventions. Widths come from
// the one rule in internal/verilog (SelfWidth, TargetWidth), which the
// interpreter uses too. Any divergence between this file and sim's
// evaluator is a bug the formal-vs-simulation agreement oracles (rtlgen's
// fourth oracle, FuzzFormalAgreesWithSim) are built to catch.

// blastScope resolves names and constants for the width rule. Bounds and
// counts must be non-negative elaboration-time constants: the bit-blaster
// has no run-time values to evaluate them with.
type blastScope struct {
	m  *Model
	sc sim.ScopeView
}

func (v blastScope) IsParam(name string) bool {
	_, ok := v.sc.Param(name)
	return ok
}

func (v blastScope) Signal(name string) (int, bool, bool) {
	idx, ok := v.sc.Lookup(name)
	if !ok {
		return 0, false, false
	}
	return v.m.sigs[idx].Width, v.m.sigs[idx].IsMem, true
}

func (v blastScope) Const(e verilog.Expr) (int64, bool) {
	n, err := verilog.EvalConst(e, v.sc.Params())
	return n, err == nil && n >= 0
}

// widthOf is the self-determined width of an expression.
func (e *sexec) widthOf(x verilog.Expr, sc sim.ScopeView) int {
	w, _ := verilog.SelfWidth(x, blastScope{e.m, sc})
	return w
}

// widthOfLHS is the declared width of an l-value.
func (e *sexec) widthOfLHS(lhs verilog.Expr, sc sim.ScopeView) int {
	w, _ := verilog.TargetWidth(lhs, blastScope{e.m, sc})
	return w
}

// evalSelf evaluates x at its self-determined width.
func (e *sexec) evalSelf(x verilog.Expr, sc sim.ScopeView) Vec {
	return e.eval(x, sc, e.widthOf(x, sc))
}

// eval evaluates x in context width ctxW, returning a vector of exactly
// min(ctxW, 64) literals (the simulator computes in masked uint64s).
func (e *sexec) eval(x verilog.Expr, sc sim.ScopeView, ctxW int) Vec {
	g := e.g()
	w := vecW(ctxW)
	if e.err != nil {
		return g.ConstVec(0, w)
	}
	switch v := x.(type) {
	case *verilog.Number:
		return g.ConstVec(v.Value, w)

	case *verilog.Ident:
		if pv, isParam := sc.Param(v.Name); isParam {
			return g.ConstVec(uint64(pv), w)
		}
		idx, ok := sc.Lookup(v.Name)
		if !ok {
			e.fail(fmt.Errorf("formal: read of undeclared signal %q (line %d)", v.Name, v.Line))
			return g.ConstVec(0, w)
		}
		return g.Resize(e.st.vals[idx], w)

	case *verilog.Unary:
		switch v.Op {
		case "!":
			return g.Resize(g.BitLit(g.RedOr(e.evalSelf(v.X, sc)).Not()), w)
		case "-":
			return g.NegVec(e.eval(v.X, sc, ctxW))
		case "+":
			return e.eval(v.X, sc, ctxW)
		case "~":
			return g.NotVec(e.eval(v.X, sc, ctxW))
		case "&", "|", "^", "~&", "~|", "~^":
			xv := e.evalSelf(v.X, sc)
			var r Lit
			switch v.Op {
			case "&":
				r = g.RedAnd(xv)
			case "|":
				r = g.RedOr(xv)
			case "^":
				r = g.RedXor(xv)
			case "~&":
				r = g.RedAnd(xv).Not()
			case "~|":
				r = g.RedOr(xv).Not()
			default:
				r = g.RedXor(xv).Not()
			}
			return g.Resize(g.BitLit(r), w)
		}
		e.fail(unsupportedf("unary %q", v.Op))
		return g.ConstVec(0, w)

	case *verilog.Binary:
		return e.evalBinary(v, sc, ctxW)

	case *verilog.Ternary:
		c := g.RedOr(e.evalSelf(v.Cond, sc))
		return g.MuxVec(c, e.eval(v.Then, sc, ctxW), e.eval(v.Else, sc, ctxW))

	case *verilog.Index:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			e.fail(unsupportedf("select base at line %d", v.Line))
			return g.ConstVec(0, w)
		}
		sel := e.evalSelf(v.Index, sc)
		idx, ok := sc.Lookup(id.Name)
		if !ok {
			e.fail(fmt.Errorf("formal: read of undeclared signal %q (line %d)", id.Name, id.Line))
			return g.ConstVec(0, w)
		}
		si := e.m.sigs[idx]
		if si.IsMem {
			// Mux chain over the reachable words; out of range reads zero.
			words := e.st.mems[idx]
			out := g.ConstVec(0, vecW(si.Width))
			reach := wordsReachable(len(sel), len(words))
			for wi := 0; wi < reach; wi++ {
				hit := g.EqConst(sel, uint64(wi))
				if hit == False {
					continue
				}
				out = g.MuxVec(hit, words[wi], out)
			}
			return g.Resize(out, w)
		}
		// Bit select: OR over (sel == i) & x[i]; out of range reads zero.
		bit := False
		xv := e.st.vals[idx]
		reach := wordsReachable(len(sel), len(xv))
		for i := 0; i < reach; i++ {
			hit := g.EqConst(sel, uint64(i))
			if hit == False {
				continue
			}
			bit = g.Or(bit, g.And(hit, xv[i]))
		}
		return g.Resize(g.BitLit(bit), w)

	case *verilog.PartSelect:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			e.fail(unsupportedf("select base at line %d", v.Line))
			return g.ConstVec(0, w)
		}
		idx, ok := sc.Lookup(id.Name)
		if !ok {
			e.fail(fmt.Errorf("formal: read of undeclared signal %q (line %d)", id.Name, id.Line))
			return g.ConstVec(0, w)
		}
		msb, lsb, ok := e.constRange(v.MSB, v.LSB, sc)
		if !ok {
			e.fail(unsupportedf("non-constant part-select bounds (line %d)", v.Line))
			return g.ConstVec(0, w)
		}
		sw := int(msb-lsb) + 1
		xv := e.st.vals[idx]
		out := make(Vec, vecW(sw))
		for i := range out {
			if bi := int(lsb) + i; bi < len(xv) {
				out[i] = xv[bi]
			} else {
				out[i] = False
			}
		}
		return g.Resize(out, w)

	case *verilog.Concat:
		// MSB-first accumulation into a 64-bit word: parts shifted off the
		// top are dropped, exactly like the interpreter's uint64.
		acc := g.ConstVec(0, 64)
		for _, p := range v.Parts {
			pw := e.widthOf(p, sc)
			pv := e.eval(p, sc, pw)
			acc = g.shiftInto(acc, pv, vecW(pw))
		}
		return g.Resize(acc, w)

	case *verilog.Repl:
		n, ok := blastScope{e.m, sc}.Const(v.Count)
		if !ok {
			e.fail(unsupportedf("non-constant replication count (line %d)", v.Line))
			return g.ConstVec(0, w)
		}
		vw := e.widthOf(v.Value, sc)
		pv := e.eval(v.Value, sc, vw)
		acc := g.ConstVec(0, 64)
		for i := int64(0); i < n && i < 64; i++ {
			acc = g.shiftInto(acc, pv, vecW(vw))
		}
		return g.Resize(acc, w)
	}
	e.fail(unsupportedf("expression %T", x))
	return g.ConstVec(0, w)
}

// shiftInto is acc = (acc << pw) | part within a 64-bit accumulator.
func (g *AIG) shiftInto(acc Vec, part Vec, pw int) Vec {
	out := make(Vec, 64)
	for i := 0; i < 64; i++ {
		switch {
		case i < pw && i < len(part):
			out[i] = part[i]
		case i < pw:
			out[i] = False
		case i-pw < len(acc):
			out[i] = acc[i-pw]
		default:
			out[i] = False
		}
	}
	return out
}

func (e *sexec) evalBinary(v *verilog.Binary, sc sim.ScopeView, ctxW int) Vec {
	g := e.g()
	w := vecW(ctxW)
	switch v.Op {
	case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
		x := e.eval(v.X, sc, ctxW)
		y := e.eval(v.Y, sc, ctxW)
		switch v.Op {
		case "+":
			return g.AddVec(x, y)
		case "-":
			return g.SubVec(x, y)
		case "*":
			return g.MulVec(x, y)
		case "/":
			q, _ := g.DivModVec(x, y)
			return q
		case "%":
			_, r := g.DivModVec(x, y)
			return r
		case "&":
			return g.AndVec(x, y)
		case "|":
			return g.OrVec(x, y)
		case "^":
			return g.XorVec(x, y)
		default: // ~^ ^~ xnor
			return g.NotVec(g.XorVec(x, y))
		}

	case "==", "!=", "<", ">", "<=", ">=", "===", "!==":
		cw := e.widthOf(v.X, sc)
		if yw := e.widthOf(v.Y, sc); yw > cw {
			cw = yw
		}
		x := e.eval(v.X, sc, cw)
		y := e.eval(v.Y, sc, cw)
		var r Lit
		switch v.Op {
		case "==", "===":
			r = g.EqVec(x, y)
		case "!=", "!==":
			r = g.EqVec(x, y).Not()
		case "<":
			r = g.UltVec(x, y)
		case ">":
			r = g.UltVec(y, x)
		case "<=":
			r = g.UleVec(x, y)
		default:
			r = g.UleVec(y, x)
		}
		return g.Resize(g.BitLit(r), w)

	case "&&", "||":
		x := g.RedOr(e.evalSelf(v.X, sc))
		y := g.RedOr(e.evalSelf(v.Y, sc))
		if v.Op == "&&" {
			return g.Resize(g.BitLit(g.And(x, y)), w)
		}
		return g.Resize(g.BitLit(g.Or(x, y)), w)

	case "<<", "<<<":
		x := e.eval(v.X, sc, ctxW)
		n := e.evalSelf(v.Y, sc)
		return g.ShlVec(x, n)

	case ">>", ">>>":
		// Logical shift, operand at max(self, context) width so stray high
		// bits never leak in — then truncated to the context.
		cw := e.widthOf(v.X, sc)
		if ctxW > cw {
			cw = ctxW
		}
		x := e.eval(v.X, sc, cw)
		n := e.evalSelf(v.Y, sc)
		return g.Resize(g.ShrVec(x, n), w)
	}
	e.fail(unsupportedf("binary operator %q", v.Op))
	return g.ConstVec(0, w)
}
