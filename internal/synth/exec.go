package synth

import (
	"fmt"

	"uvllm/internal/verilog"
)

// symEnv is the symbolic-execution state inside one always block.
type symEnv struct {
	b        *builder
	vals     map[string]int   // blocking writes visible to later reads
	nba      map[string]int   // pending non-blocking writes
	concrete map[string]int64 // loop variables with known constant values
}

func newSymEnv(b *builder) *symEnv {
	return &symEnv{b: b, vals: map[string]int{}, nba: map[string]int{}, concrete: map[string]int64{}}
}

func (e *symEnv) clone() *symEnv {
	c := newSymEnv(e.b)
	for k, v := range e.vals {
		c.vals[k] = v
	}
	for k, v := range e.nba {
		c.nba[k] = v
	}
	for k, v := range e.concrete {
		c.concrete[k] = v
	}
	return c
}

// read resolves a signal to a node: concrete loop constants, then local
// blocking writes, then the module environment (inputs, registers,
// previously synthesized combinational signals), then parameters.
func (e *symEnv) read(name string, line int) (int, error) {
	if v, ok := e.concrete[name]; ok {
		return e.b.nl.konst(uint64(v), 32), nil
	}
	if id, ok := e.vals[name]; ok {
		return id, nil
	}
	if id, ok := e.b.env[name]; ok {
		return id, nil
	}
	if v, ok := e.b.params[name]; ok {
		return e.b.nl.konst(uint64(v), 32), nil
	}
	return 0, fmt.Errorf("synth: read of unresolved signal %q (line %d)", name, line)
}

// constEnv merges parameters and concrete loop variables for constant
// evaluation of loop bounds and selects.
func (e *symEnv) constEnv() verilog.ConstEnv {
	env := verilog.ConstEnv{}
	for k, v := range e.b.params {
		env[k] = v
	}
	for k, v := range e.concrete {
		env[k] = v
	}
	return env
}

// synthCombItem synthesizes a continuous assignment or a combinational
// always block into the module environment.
func (b *builder) synthCombItem(it verilog.Item) error {
	switch v := it.(type) {
	case *verilog.ContAssign:
		env := newSymEnv(b)
		ctxW := b.lhsWidth(v.LHS, env)
		if w := b.selfWidth(v.RHS, env); w > ctxW {
			ctxW = w
		}
		node, err := b.synthExpr(v.RHS, env, ctxW)
		if err != nil {
			return err
		}
		return b.writeGlobal(v.LHS, env, node)
	case *verilog.AlwaysBlock:
		env := newSymEnv(b)
		if err := b.exec(v.Body, env, nil); err != nil {
			return err
		}
		for name, node := range env.vals {
			if _, isInt := env.concrete[name]; isInt {
				continue
			}
			b.env[name] = b.fitWidth(node, b.widths[name])
		}
		return nil
	}
	return fmt.Errorf("synth: unsupported combinational item %T", it)
}

// synthSeqBlock synthesizes an edge-triggered always block: its
// non-blocking writes become register next-state functions.
func (b *builder) synthSeqBlock(ab *verilog.AlwaysBlock) error {
	env := newSymEnv(b)
	if err := b.exec(ab.Body, env, nil); err != nil {
		return err
	}
	for name, node := range env.nba {
		found := false
		for i := range b.nl.Regs {
			if b.nl.Regs[i].Name == name {
				b.nl.Regs[i].Next = b.fitWidth(node, b.widths[name])
				found = true
			}
		}
		if !found {
			return fmt.Errorf("synth: non-blocking write to unregistered %q", name)
		}
	}
	// Blocking writes inside a sequential block behave as registered
	// temporaries; treat them as regs updated with the computed value.
	for name, node := range env.vals {
		for i := range b.nl.Regs {
			if b.nl.Regs[i].Name == name {
				b.nl.Regs[i].Next = b.fitWidth(node, b.widths[name])
			}
		}
	}
	return nil
}

// fitWidth truncates a node to w bits when it is wider.
func (b *builder) fitWidth(id, w int) int {
	if b.nl.Nodes[id].Width <= w {
		return id
	}
	return b.nl.add(&Node{Kind: OpSlice, Width: w, Args: []int{id}, Lo: 0, Hi: w - 1})
}

// exec symbolically executes one statement. kind==nil means default
// handling of blocking/non-blocking per the assignment operator.
func (b *builder) exec(s verilog.Stmt, env *symEnv, _ interface{}) error {
	switch v := s.(type) {
	case nil, *verilog.NullStmt:
		return nil
	case *verilog.Block:
		for _, st := range v.Stmts {
			if err := b.exec(st, env, nil); err != nil {
				return err
			}
		}
		return nil
	case *verilog.Assign:
		return b.execAssign(v, env)
	case *verilog.If:
		return b.execIf(v.Cond, v.Then, v.Else, env)
	case *verilog.Case:
		return b.execCase(v, env)
	case *verilog.For:
		return b.execFor(v, env)
	}
	return fmt.Errorf("synth: unsupported statement %T", s)
}

func (b *builder) execAssign(a *verilog.Assign, env *symEnv) error {
	if a == nil {
		return nil
	}
	// Integer loop variables with constant RHS stay concrete.
	if id, ok := a.LHS.(*verilog.Ident); ok {
		if v, err := verilog.EvalConst(a.RHS, env.constEnv()); err == nil {
			if _, isConc := env.concrete[id.Name]; isConc {
				env.concrete[id.Name] = v
				return nil
			}
		}
	}
	ctxW := b.lhsWidth(a.LHS, env)
	if w := b.selfWidth(a.RHS, env); w > ctxW {
		ctxW = w
	}
	node, err := b.synthExpr(a.RHS, env, ctxW)
	if err != nil {
		return err
	}
	return b.writeLocal(a.LHS, env, node, a.Blocking)
}

func (b *builder) execIf(cond verilog.Expr, then, els verilog.Stmt, env *symEnv) error {
	// Constant conditions (loop-unrolled selects) take one branch.
	if cv, err := verilog.EvalConst(cond, env.constEnv()); err == nil {
		if cv != 0 {
			return b.exec(then, env, nil)
		}
		return b.exec(els, env, nil)
	}
	condNode, err := b.synthExpr(cond, env, b.selfWidth(cond, env))
	if err != nil {
		return err
	}
	condBit := b.boolNode(condNode)
	thenEnv := env.clone()
	elseEnv := env.clone()
	if err := b.exec(then, thenEnv, nil); err != nil {
		return err
	}
	if els != nil {
		if err := b.exec(els, elseEnv, nil); err != nil {
			return err
		}
	}
	return b.merge(env, condBit, thenEnv, elseEnv)
}

// boolNode reduces a multi-bit node to one bit of truthiness.
func (b *builder) boolNode(id int) int {
	if b.nl.Nodes[id].Width == 1 {
		return id
	}
	return b.nl.add(&Node{Kind: OpRedOr, Width: 1, Args: []int{id}})
}

// merge folds two branch environments back into env with mux trees.
func (b *builder) merge(env *symEnv, cond int, thenEnv, elseEnv *symEnv) error {
	mergeMap := func(get func(*symEnv) map[string]int, fallback func(string) (int, bool)) error {
		names := map[string]bool{}
		for n := range get(thenEnv) {
			names[n] = true
		}
		for n := range get(elseEnv) {
			names[n] = true
		}
		for name := range names {
			tv, tok := get(thenEnv)[name]
			ev, eok := get(elseEnv)[name]
			if !tok || !eok {
				fb, fok := fallback(name)
				if !fok {
					return fmt.Errorf("synth: latch inferred for %q (not assigned on all paths)", name)
				}
				if !tok {
					tv = fb
				}
				if !eok {
					ev = fb
				}
			}
			if tv == ev {
				get(env)[name] = tv
				continue
			}
			w := b.nl.Nodes[tv].Width
			if ew := b.nl.Nodes[ev].Width; ew > w {
				w = ew
			}
			get(env)[name] = b.nl.add(&Node{Kind: OpMux, Width: w, Args: []int{cond, tv, ev}})
		}
		return nil
	}
	if err := mergeMap(func(e *symEnv) map[string]int { return e.vals },
		func(name string) (int, bool) {
			if id, ok := env.vals[name]; ok {
				return id, true
			}
			id, ok := b.env[name]
			return id, ok
		}); err != nil {
		return err
	}
	return mergeMap(func(e *symEnv) map[string]int { return e.nba },
		func(name string) (int, bool) {
			if id, ok := env.nba[name]; ok {
				return id, true
			}
			// Hold semantics: a register keeps its value when a branch
			// does not assign it.
			id, ok := b.env[name]
			return id, ok
		})
}

func (b *builder) execCase(c *verilog.Case, env *symEnv) error {
	// Desugar to an if/else chain, default last.
	var arms []verilog.CaseItem
	var def verilog.Stmt
	for _, it := range c.Items {
		if it.Exprs == nil {
			def = it.Body
			continue
		}
		arms = append(arms, it)
	}
	var build func(i int) (verilog.Stmt, error)
	build = func(i int) (verilog.Stmt, error) {
		if i == len(arms) {
			return def, nil
		}
		rest, err := build(i + 1)
		if err != nil {
			return nil, err
		}
		cond := caseCond(c.Expr, arms[i].Exprs)
		return &verilog.If{Cond: cond, Then: arms[i].Body, Else: rest, Line: arms[i].Line}, nil
	}
	chain, err := build(0)
	if err != nil {
		return err
	}
	return b.exec(chain, env, nil)
}

func caseCond(sel verilog.Expr, labels []verilog.Expr) verilog.Expr {
	var cond verilog.Expr
	for _, l := range labels {
		eq := &verilog.Binary{Op: "==", X: sel, Y: l}
		if cond == nil {
			cond = eq
		} else {
			cond = &verilog.Binary{Op: "||", X: cond, Y: eq}
		}
	}
	return cond
}

const maxUnroll = 256

func (b *builder) execFor(f *verilog.For, env *symEnv) error {
	if f.Init == nil || f.Step == nil {
		return fmt.Errorf("synth: for loop without init/step (line %d)", f.Line)
	}
	varName := ""
	if id, ok := f.Init.LHS.(*verilog.Ident); ok {
		varName = id.Name
	}
	if varName == "" {
		return fmt.Errorf("synth: for loop with complex induction variable (line %d)", f.Line)
	}
	init, err := verilog.EvalConst(f.Init.RHS, env.constEnv())
	if err != nil {
		return fmt.Errorf("synth: non-constant loop init (line %d): %w", f.Line, err)
	}
	env.concrete[varName] = init
	for iter := 0; ; iter++ {
		if iter > maxUnroll {
			return fmt.Errorf("synth: loop unroll limit exceeded (line %d)", f.Line)
		}
		cond, err := verilog.EvalConst(f.Cond, env.constEnv())
		if err != nil {
			return fmt.Errorf("synth: non-constant loop bound (line %d): %w", f.Line, err)
		}
		if cond == 0 {
			break
		}
		if err := b.exec(f.Body, env, nil); err != nil {
			return err
		}
		step, err := verilog.EvalConst(f.Step.RHS, env.constEnv())
		if err != nil {
			return fmt.Errorf("synth: non-constant loop step (line %d): %w", f.Line, err)
		}
		env.concrete[varName] = step
	}
	delete(env.concrete, varName)
	return nil
}

// writeGlobal stores a continuous assignment's value into the module
// environment (splitting concatenation LHS).
func (b *builder) writeGlobal(lhs verilog.Expr, env *symEnv, node int) error {
	switch l := lhs.(type) {
	case *verilog.Ident:
		b.env[l.Name] = b.fitWidth(node, b.widths[l.Name])
		return nil
	case *verilog.Concat:
		return b.splitConcat(l, env, node, func(name string, part int) {
			b.env[name] = part
		})
	case *verilog.PartSelect, *verilog.Index:
		return fmt.Errorf("synth: partial continuous assignment unsupported")
	}
	return fmt.Errorf("synth: unsupported assign target %T", lhs)
}

// writeLocal stores a procedural assignment into the symbolic environment.
func (b *builder) writeLocal(lhs verilog.Expr, env *symEnv, node int, blocking bool) error {
	store := func(name string, v int) {
		v = b.fitWidth(v, b.widths[name])
		if blocking {
			env.vals[name] = v
		} else {
			env.nba[name] = v
		}
	}
	switch l := lhs.(type) {
	case *verilog.Ident:
		store(l.Name, node)
		return nil
	case *verilog.Concat:
		return b.splitConcat(l, env, node, store)
	case *verilog.Index:
		return b.readModifyWrite(l.X, env, node, l.Index, l.Index, blocking, store)
	case *verilog.PartSelect:
		return b.readModifyWrite(l.X, env, node, l.MSB, l.LSB, blocking, store)
	}
	return fmt.Errorf("synth: unsupported assignment target %T", lhs)
}

// readModifyWrite implements bit/part-select writes: the target keeps its
// other bits.
func (b *builder) readModifyWrite(base verilog.Expr, env *symEnv, val int,
	msbE, lsbE verilog.Expr, blocking bool, store func(string, int)) error {

	id, ok := base.(*verilog.Ident)
	if !ok {
		return fmt.Errorf("synth: nested select targets unsupported")
	}
	msb, err1 := verilog.EvalConst(msbE, env.constEnv())
	lsb, err2 := verilog.EvalConst(lsbE, env.constEnv())
	if err1 != nil || err2 != nil {
		return fmt.Errorf("synth: non-constant select write to %q", id.Name)
	}
	if msb < lsb {
		msb, lsb = lsb, msb
	}
	w := b.widths[id.Name]
	fieldW := int(msb-lsb) + 1
	// Previous value: local if present, else pending NBA, else global.
	prev, ok := env.vals[id.Name]
	if !ok {
		if p, pok := env.nba[id.Name]; pok && !blocking {
			prev = p
			ok = true
		}
	}
	if !ok {
		var perr error
		prev, perr = env.read(id.Name, 0)
		if perr != nil {
			return perr
		}
	}
	mask := verilog.Mask(fieldW) << uint(lsb)
	notMask := b.nl.konst(^mask&verilog.Mask(w), w)
	cleared := b.nl.add(&Node{Kind: OpAnd, Width: w, Args: []int{prev, notMask}})
	valMasked := b.fitWidth(val, fieldW)
	shifted := valMasked
	if lsb > 0 {
		shAmt := b.nl.konst(uint64(lsb), 32)
		wide := b.nl.add(&Node{Kind: OpShl, Width: w, Args: []int{valMasked, shAmt}})
		shifted = wide
	} else if b.nl.Nodes[valMasked].Width < w {
		shifted = valMasked
	}
	merged := b.nl.add(&Node{Kind: OpOr, Width: w, Args: []int{cleared, shifted}})
	store(id.Name, merged)
	return nil
}

// splitConcat distributes a value across the parts of a concatenation
// target, MSB first.
func (b *builder) splitConcat(l *verilog.Concat, env *symEnv, node int, store func(string, int)) error {
	total := 0
	widths := make([]int, len(l.Parts))
	for i, p := range l.Parts {
		id, ok := p.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("synth: concatenation targets must be identifiers")
		}
		widths[i] = b.widths[id.Name]
		total += widths[i]
	}
	shift := total
	for i, p := range l.Parts {
		shift -= widths[i]
		id := p.(*verilog.Ident)
		part := b.nl.add(&Node{Kind: OpSlice, Width: widths[i], Args: []int{node},
			Lo: shift, Hi: shift + widths[i] - 1})
		store(id.Name, part)
	}
	return nil
}
