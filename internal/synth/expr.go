package synth

import (
	"fmt"

	"uvllm/internal/verilog"
)

// synthScope resolves names and constants for the width rule shared with
// the simulator (verilog.SelfWidth, verilog.TargetWidth), so the netlist
// computes bit-identical results. Loop variables read as 32-bit
// constants, like parameters, and there are no memories.
type synthScope struct {
	b   *builder
	env *symEnv
}

func (v synthScope) IsParam(name string) bool {
	if _, loop := v.env.concrete[name]; loop {
		return true
	}
	_, param := v.b.params[name]
	return param
}

func (v synthScope) Signal(name string) (int, bool, bool) {
	w, ok := v.b.widths[name]
	return w, false, ok
}

func (v synthScope) Const(e verilog.Expr) (int64, bool) {
	n, err := verilog.EvalConst(e, v.env.constEnv())
	return n, err == nil
}

// selfWidth is the self-determined width of an expression.
func (b *builder) selfWidth(e verilog.Expr, env *symEnv) int {
	w, _ := verilog.SelfWidth(e, synthScope{b, env})
	return w
}

// lhsWidth is the declared width of an assignment target.
func (b *builder) lhsWidth(lhs verilog.Expr, env *symEnv) int {
	w, _ := verilog.TargetWidth(lhs, synthScope{b, env})
	return w
}

var binOpKinds = map[string]OpKind{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"&": OpAnd, "|": OpOr, "^": OpXor, "~^": OpXnor, "^~": OpXnor,
	"==": OpEq, "===": OpEq, "!=": OpNe, "!==": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"&&": OpLogAnd, "||": OpLogOr,
	"<<": OpShl, "<<<": OpShl, ">>": OpShr, ">>>": OpShr,
}

// synthExpr builds netlist nodes for e evaluated at context width ctxW,
// following the same context/self-determined width split as the simulator.
func (b *builder) synthExpr(e verilog.Expr, env *symEnv, ctxW int) (int, error) {
	nl := b.nl
	switch v := e.(type) {
	case *verilog.Number:
		return nl.konst(v.Value, ctxW), nil

	case *verilog.Ident:
		id, err := env.read(v.Name, v.Line)
		if err != nil {
			return 0, err
		}
		return b.fitWidth(id, max(ctxW, 1)), nil

	case *verilog.Unary:
		switch v.Op {
		case "!":
			x, err := b.synthExpr(v.X, env, b.selfWidth(v.X, env))
			if err != nil {
				return 0, err
			}
			return nl.add(&Node{Kind: OpLogNot, Width: 1, Args: []int{x}}), nil
		case "-":
			x, err := b.synthExpr(v.X, env, ctxW)
			if err != nil {
				return 0, err
			}
			return nl.add(&Node{Kind: OpNeg, Width: ctxW, Args: []int{x}}), nil
		case "+":
			return b.synthExpr(v.X, env, ctxW)
		case "~":
			x, err := b.synthExpr(v.X, env, ctxW)
			if err != nil {
				return 0, err
			}
			return nl.add(&Node{Kind: OpNot, Width: ctxW, Args: []int{x}}), nil
		case "&", "|", "^", "~&", "~|", "~^":
			w := b.selfWidth(v.X, env)
			x, err := b.synthExpr(v.X, env, w)
			if err != nil {
				return 0, err
			}
			var k OpKind
			neg := false
			switch v.Op {
			case "&":
				k = OpRedAnd
			case "|":
				k = OpRedOr
			case "^":
				k = OpRedXor
			case "~&":
				k, neg = OpRedAnd, true
			case "~|":
				k, neg = OpRedOr, true
			case "~^":
				k, neg = OpRedXor, true
			}
			id := nl.add(&Node{Kind: k, Width: 1, Args: []int{x}})
			if neg {
				id = nl.add(&Node{Kind: OpLogNot, Width: 1, Args: []int{id}})
			}
			return id, nil
		}
		return 0, fmt.Errorf("synth: unsupported unary %q", v.Op)

	case *verilog.Binary:
		kind, ok := binOpKinds[v.Op]
		if !ok {
			return 0, fmt.Errorf("synth: unsupported operator %q", v.Op)
		}
		switch v.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			x, err := b.synthExpr(v.X, env, ctxW)
			if err != nil {
				return 0, err
			}
			y, err := b.synthExpr(v.Y, env, ctxW)
			if err != nil {
				return 0, err
			}
			return nl.add(&Node{Kind: kind, Width: ctxW, Args: []int{x, y}}), nil
		case "==", "!=", "===", "!==", "<", ">", "<=", ">=":
			w := b.selfWidth(v.X, env)
			if yw := b.selfWidth(v.Y, env); yw > w {
				w = yw
			}
			x, err := b.synthExpr(v.X, env, w)
			if err != nil {
				return 0, err
			}
			y, err := b.synthExpr(v.Y, env, w)
			if err != nil {
				return 0, err
			}
			return nl.add(&Node{Kind: kind, Width: 1, Args: []int{x, y}}), nil
		case "&&", "||":
			x, err := b.synthExpr(v.X, env, b.selfWidth(v.X, env))
			if err != nil {
				return 0, err
			}
			y, err := b.synthExpr(v.Y, env, b.selfWidth(v.Y, env))
			if err != nil {
				return 0, err
			}
			return nl.add(&Node{Kind: kind, Width: 1, Args: []int{b.boolNode(x), b.boolNode(y)}}), nil
		default: // shifts
			w := ctxW
			if v.Op == ">>" || v.Op == ">>>" {
				if xw := b.selfWidth(v.X, env); xw > w {
					w = xw
				}
			}
			x, err := b.synthExpr(v.X, env, w)
			if err != nil {
				return 0, err
			}
			y, err := b.synthExpr(v.Y, env, b.selfWidth(v.Y, env))
			if err != nil {
				return 0, err
			}
			id := nl.add(&Node{Kind: kind, Width: w, Args: []int{x, y}})
			return b.fitWidth(id, ctxW), nil
		}

	case *verilog.Ternary:
		c, err := b.synthExpr(v.Cond, env, b.selfWidth(v.Cond, env))
		if err != nil {
			return 0, err
		}
		t, err := b.synthExpr(v.Then, env, ctxW)
		if err != nil {
			return 0, err
		}
		el, err := b.synthExpr(v.Else, env, ctxW)
		if err != nil {
			return 0, err
		}
		return nl.add(&Node{Kind: OpMux, Width: ctxW, Args: []int{b.boolNode(c), t, el}}), nil

	case *verilog.Index:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return 0, fmt.Errorf("synth: unsupported select base (line %d)", v.Line)
		}
		base, err := env.read(id.Name, id.Line)
		if err != nil {
			return 0, err
		}
		if sel, cerr := verilog.EvalConst(v.Index, env.constEnv()); cerr == nil {
			w := b.nl.Nodes[base].Width
			if int(sel) >= w {
				return nl.konst(0, 1), nil
			}
			return nl.add(&Node{Kind: OpSlice, Width: 1, Args: []int{base}, Lo: int(sel), Hi: int(sel)}), nil
		}
		// Dynamic bit select: (base >> idx) & 1.
		idx, err := b.synthExpr(v.Index, env, b.selfWidth(v.Index, env))
		if err != nil {
			return 0, err
		}
		sh := nl.add(&Node{Kind: OpShr, Width: b.nl.Nodes[base].Width, Args: []int{base, idx}})
		return b.fitWidth(sh, 1), nil

	case *verilog.PartSelect:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return 0, fmt.Errorf("synth: unsupported select base (line %d)", v.Line)
		}
		base, err := env.read(id.Name, id.Line)
		if err != nil {
			return 0, err
		}
		msb, e1 := verilog.EvalConst(v.MSB, env.constEnv())
		lsb, e2 := verilog.EvalConst(v.LSB, env.constEnv())
		if e1 != nil || e2 != nil {
			return 0, fmt.Errorf("synth: non-constant part select of %q", id.Name)
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		return nl.add(&Node{Kind: OpSlice, Width: int(msb-lsb) + 1, Args: []int{base},
			Lo: int(lsb), Hi: int(msb)}), nil

	case *verilog.Concat:
		var args []int
		total := 0
		for _, p := range v.Parts {
			w := b.selfWidth(p, env)
			a, err := b.synthExpr(p, env, w)
			if err != nil {
				return 0, err
			}
			args = append(args, b.fitWidth(a, w))
			total += w
		}
		return nl.add(&Node{Kind: OpConcat, Width: total, Args: args}), nil

	case *verilog.Repl:
		n, err := verilog.EvalConst(v.Count, env.constEnv())
		if err != nil {
			return 0, fmt.Errorf("synth: non-constant replication count")
		}
		w := b.selfWidth(v.Value, env)
		a, aerr := b.synthExpr(v.Value, env, w)
		if aerr != nil {
			return 0, aerr
		}
		a = b.fitWidth(a, w)
		// OpConcat keeps the low 64 bits, which the last 64 copies fill:
		// more copies cannot change the value.
		var args []int
		for i := int64(0); i < min(n, 64); i++ {
			args = append(args, a)
		}
		return nl.add(&Node{Kind: OpConcat, Width: int(n) * w, Args: args}), nil
	}
	return 0, fmt.Errorf("synth: unsupported expression %T", e)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
