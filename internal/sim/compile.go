package sim

// Compiled simulation backend. Elaboration produces the same Design the
// event-driven engine runs; compilation lowers every process body into a
// tree of closures over the dense signal arena (identifier resolution, bit
// widths and masks are burned in at compile time instead of being looked up
// per evaluation) and topologically levelizes the combinational processes
// so that one straight-line sweep per delta round replaces the event
// queue's enqueue/dequeue walk. Non-blocking assignments stay batched in
// the shared NBA queue and commit once per round, exactly as in the
// reference engine.
//
// Semantics are guarded in two layers:
//
//  1. Per-construct: a statement or expression the compiler cannot prove it
//     lowers exactly (dynamic part-select widths, unsupported nodes) falls
//     back to the interpreter for that statement only.
//  2. Per-design: the levelized sweep is only valid for designs where it
//     provably reaches the same fixpoint as event-driven execution — @(*)
//     or assign-style combinational processes, acyclic, single-driver, no
//     NBAs in combinational code, no read-modify-write self state. Designs
//     outside that class (incomplete sensitivity lists, combinational
//     loops, COMBDLY-style defects — all injectable by faultgen) keep the
//     event scheduler and run compiled bodies under it, which preserves
//     event semantics bit for bit.
//
// The differential suite in diff_test.go asserts byte-identical port
// traces, VCD output and coverage counts across backends for every dataset
// module and a seeded sample of faultgen mutants.

import (
	"fmt"

	"uvllm/internal/verilog"
)

// Backend selects the simulation engine.
type Backend int

const (
	// BackendCompiled is the default fast path: process bodies lowered to
	// closures over the signal arena, combinational logic executed as a
	// levelized straight-line sweep (falling back to event scheduling with
	// compiled bodies when the design is not cleanly levelizable).
	BackendCompiled Backend = iota
	// BackendEventDriven is the reference event-queue interpreter.
	BackendEventDriven
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendCompiled:
		return "compiled"
	case BackendEventDriven:
		return "event"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend parses a backend name as used by command-line flags.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "compiled", "":
		return BackendCompiled, nil
	case "event", "event-driven":
		return BackendEventDriven, nil
	}
	return 0, fmt.Errorf("sim: unknown backend %q (want compiled or event)", name)
}

// evalFn is a compiled expression: all error paths of the interpreter's
// eval are compile-time detectable, so compiled expressions cannot fail.
type evalFn func(*Instance) uint64

// writeFn stores a value into a compiled l-value.
type writeFn func(*Instance, uint64)

// stmtFn is a compiled statement; only for-loop iteration limits (and
// interpreter fallback thunks) can error at runtime.
type stmtFn func(*Instance) error

// program is the compiled form of a Design.
type program struct {
	run      []stmtFn // per process index; nil = run the interpreter
	order    []int    // combinational process indices in levelized order
	orderFns []stmtFn // executable aligned with order (compiled or interp)
	reason   string   // why the levelized sweep is disabled ("" = clean)
}

// clean reports whether the levelized straight-line sweep is active.
func (p *program) clean() bool { return p.reason == "" }

var errDynamic = fmt.Errorf("sim: construct not statically compilable")

type compiler struct {
	s *Instance
}

// compileProgram lowers every process of s's design and levelizes the
// combinational ones. It never fails: anything uncompilable stays on the
// interpreter, any unlevelizable structure disables the sweep.
func compileProgram(s *Instance) *program {
	c := &compiler{s: s}
	p := &program{run: make([]stmtFn, len(s.d.procs))}
	for _, pr := range s.d.procs {
		if pr.kind == procComb || pr.kind == procSeq {
			p.run[pr.idx] = c.compileProc(pr)
		}
	}
	p.order, p.reason = c.levelize()
	if p.clean() {
		p.orderFns = make([]stmtFn, len(p.order))
		for i, pi := range p.order {
			if fn := p.run[pi]; fn != nil {
				p.orderFns[i] = fn
			} else {
				pr := s.d.procs[pi]
				p.orderFns[i] = func(s *Instance) error { return s.interpProc(pr) }
			}
		}
	}
	return p
}

// ---------------------------------------------------------------------------
// Process and statement compilation

func (c *compiler) compileProc(p *process) stmtFn {
	if p.connRHS != nil {
		fn, err := c.compileConn(p)
		if err != nil {
			return nil // interpreter
		}
		return fn
	}
	if p.body == nil {
		return nil
	}
	return c.compileStmt(p, p.body)
}

// compileConn lowers a continuous assignment / port connection, mirroring
// runProc's width rules: LHS declared width stretched by the RHS
// self-determined width.
func (c *compiler) compileConn(p *process) (stmtFn, error) {
	w, ok := c.staticWidthOfLHS(p.connLHS, p.connLHSsc)
	if !ok {
		return nil, errDynamic
	}
	rw, ok := c.staticWidthOf(p.connRHS, p.connRHSsc)
	if !ok {
		return nil, errDynamic
	}
	if rw > w {
		w = rw
	}
	rhs, err := c.compileExpr(p.connRHS, p.connRHSsc, w)
	if err != nil {
		return nil, err
	}
	wr, err := c.compileWrite(p.connLHS, p.connLHSsc, true)
	if err != nil {
		return nil, err
	}
	return func(s *Instance) error {
		wr(s, rhs(s))
		return nil
	}, nil
}

// compileStmt never fails: statements the compiler cannot lower exactly
// become interpreter thunks, preserving reference semantics (including the
// interpreter's own runtime errors) for that statement only.
func (c *compiler) compileStmt(p *process, st verilog.Stmt) stmtFn {
	fn, err := c.tryStmt(p, st)
	if err != nil {
		return func(s *Instance) error { return s.execStmt(p, st) }
	}
	return fn
}

func (c *compiler) tryStmt(p *process, st verilog.Stmt) (stmtFn, error) {
	switch v := st.(type) {
	case nil, *verilog.NullStmt:
		return func(*Instance) error { return nil }, nil

	case *verilog.Block:
		fns := make([]stmtFn, len(v.Stmts))
		for i, sub := range v.Stmts {
			fns[i] = c.compileStmt(p, sub)
		}
		return func(s *Instance) error {
			for _, fn := range fns {
				if err := fn(s); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case *verilog.Assign:
		return c.compileAssign(p.sc, v)

	case *verilog.If:
		cond, err := c.compileSelf(v.Cond, p.sc)
		if err != nil {
			return nil, err
		}
		then := c.compileStmt(p, v.Then)
		var els stmtFn
		if v.Else != nil {
			els = c.compileStmt(p, v.Else)
		}
		return func(s *Instance) error {
			if cond(s) != 0 {
				return then(s)
			}
			if els != nil {
				return els(s)
			}
			return nil
		}, nil

	case *verilog.Case:
		sel, err := c.compileSelf(v.Expr, p.sc)
		if err != nil {
			return nil, err
		}
		type caseArm struct {
			exprs []evalFn
			body  stmtFn
			def   bool
		}
		arms := make([]caseArm, len(v.Items))
		for i := range v.Items {
			it := &v.Items[i]
			arm := caseArm{body: c.compileStmt(p, it.Body), def: it.Exprs == nil}
			for _, ex := range it.Exprs {
				efn, err := c.compileSelf(ex, p.sc)
				if err != nil {
					return nil, err
				}
				arm.exprs = append(arm.exprs, efn)
			}
			arms[i] = arm
		}
		return func(s *Instance) error {
			sv := sel(s)
			var def stmtFn
			for i := range arms {
				if arms[i].def {
					def = arms[i].body
					continue
				}
				for _, efn := range arms[i].exprs {
					if efn(s) == sv {
						return arms[i].body(s)
					}
				}
			}
			if def != nil {
				return def(s)
			}
			return nil
		}, nil

	case *verilog.For:
		var initFn, stepFn stmtFn
		var err error
		if v.Init != nil {
			if initFn, err = c.compileAssign(p.sc, v.Init); err != nil {
				return nil, err
			}
		}
		cond, err := c.compileSelf(v.Cond, p.sc)
		if err != nil {
			return nil, err
		}
		body := c.compileStmt(p, v.Body)
		if v.Step != nil {
			if stepFn, err = c.compileAssign(p.sc, v.Step); err != nil {
				return nil, err
			}
		}
		line := v.Line
		return func(s *Instance) error {
			if initFn != nil {
				if err := initFn(s); err != nil {
					return err
				}
			}
			for iter := 0; ; iter++ {
				if iter > 1<<16 {
					return fmt.Errorf("sim: for loop at line %d exceeded %d iterations", line, 1<<16)
				}
				if cond(s) == 0 {
					return nil
				}
				if err := body(s); err != nil {
					return err
				}
				if stepFn != nil {
					if err := stepFn(s); err != nil {
						return err
					}
				}
			}
		}, nil
	}
	return nil, errDynamic
}

// compileAssign mirrors execAssign: context width is the LHS declared
// width stretched by the RHS self-determined width.
func (c *compiler) compileAssign(sc *scope, a *verilog.Assign) (stmtFn, error) {
	if a == nil {
		return func(*Instance) error { return nil }, nil
	}
	w, ok := c.staticWidthOfLHS(a.LHS, sc)
	if !ok {
		return nil, errDynamic
	}
	rw, ok := c.staticWidthOf(a.RHS, sc)
	if !ok {
		return nil, errDynamic
	}
	if rw > w {
		w = rw
	}
	rhs, err := c.compileExpr(a.RHS, sc, w)
	if err != nil {
		return nil, err
	}
	wr, err := c.compileWrite(a.LHS, sc, a.Blocking)
	if err != nil {
		return nil, err
	}
	return func(s *Instance) error {
		wr(s, rhs(s))
		return nil
	}, nil
}

// compileWrite lowers an l-value store, mirroring writeLHS (including its
// out-of-range and masking behavior). Part-select targets require constant
// bounds; dynamic ones fall back to the interpreter via the caller.
func (c *compiler) compileWrite(lhs verilog.Expr, sc *scope, blocking bool) (writeFn, error) {
	switch l := lhs.(type) {
	case *verilog.Ident:
		idx, ok := sc.names[l.Name]
		if !ok {
			return nil, errDynamic
		}
		wm := verilog.Mask(c.s.d.sigs[idx].width)
		if blocking {
			return func(s *Instance, v uint64) { s.set(idx, v) }, nil
		}
		return func(s *Instance, v uint64) {
			s.nba = append(s.nba, nbaWrite{sig: idx, mask: wm, val: v & wm})
		}, nil

	case *verilog.Index:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return nil, errDynamic
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return nil, errDynamic
		}
		sel, err := c.compileSelf(l.Index, sc)
		if err != nil {
			return nil, err
		}
		si := c.s.d.sigs[idx]
		if si.isMem {
			wm := verilog.Mask(si.width)
			if blocking {
				return func(s *Instance, v uint64) {
					sv := sel(s)
					mem := s.mems[idx]
					// Unsigned compare, mirroring writeLHS: bit-63 indices
					// fall out of range instead of wrapping negative.
					if sv < uint64(len(mem)) && mem[sv] != v&wm {
						mem[sv] = v & wm
						s.touchMem(idx)
					}
				}, nil
			}
			return func(s *Instance, v uint64) {
				s.nba = append(s.nba, nbaWrite{sig: idx, isMem: true, memIdx: int(sel(s)), mask: wm, val: v & wm})
			}, nil
		}
		width := si.width
		if blocking {
			return func(s *Instance, v uint64) {
				sv := sel(s)
				if int(sv) >= width {
					return
				}
				mask := uint64(1) << uint(sv)
				s.set(idx, (s.vals[idx]&^mask)|((v&1)<<uint(sv)))
			}, nil
		}
		return func(s *Instance, v uint64) {
			sv := sel(s)
			if int(sv) >= width {
				return
			}
			mask := uint64(1) << uint(sv)
			s.nba = append(s.nba, nbaWrite{sig: idx, mask: mask, val: (v & 1) << uint(sv)})
		}, nil

	case *verilog.PartSelect:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return nil, errDynamic
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return nil, errDynamic
		}
		msb, ok1 := c.staticEval(l.MSB, sc)
		lsb, ok2 := c.staticEval(l.LSB, sc)
		if !ok1 || !ok2 {
			return nil, errDynamic
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		mask := verilog.Mask(w) << uint(lsb)
		wm := verilog.Mask(w)
		shift := uint(lsb)
		if blocking {
			return func(s *Instance, v uint64) {
				s.set(idx, (s.vals[idx]&^mask)|((v&wm)<<shift))
			}, nil
		}
		return func(s *Instance, v uint64) {
			s.nba = append(s.nba, nbaWrite{sig: idx, mask: mask, val: (v & wm) << shift})
		}, nil

	case *verilog.Concat:
		total := 0
		widths := make([]int, len(l.Parts))
		parts := make([]writeFn, len(l.Parts))
		for i, part := range l.Parts {
			w, ok := c.staticWidthOfLHS(part, sc)
			if !ok {
				return nil, errDynamic
			}
			widths[i] = w
			total += w
			wfn, err := c.compileWrite(part, sc, blocking)
			if err != nil {
				return nil, err
			}
			parts[i] = wfn
		}
		return func(s *Instance, v uint64) {
			shift := total
			for i, wfn := range parts {
				shift -= widths[i]
				wfn(s, (v>>uint(shift))&verilog.Mask(widths[i]))
			}
		}, nil
	}
	return nil, errDynamic
}

// ---------------------------------------------------------------------------
// Expression compilation

// compileSelf compiles e at its self-determined width. Part selects and
// replications whose self width is value-dependent are compiled at context
// width 64, which is arithmetically identical because their intrinsic
// masking already bounds the result to the self width.
func (c *compiler) compileSelf(e verilog.Expr, sc *scope) (evalFn, error) {
	if w, ok := c.staticWidthOf(e, sc); ok {
		return c.compileExpr(e, sc, w)
	}
	switch e.(type) {
	case *verilog.PartSelect, *verilog.Repl:
		return c.compileExpr(e, sc, 64)
	}
	return nil, errDynamic
}

// compileExpr compiles e in context width ctxW, mirroring eval case by
// case (context-determined operands at ctxW, self-determined ones at their
// own width, result masked to ctxW).
func (c *compiler) compileExpr(e verilog.Expr, sc *scope, ctxW int) (evalFn, error) {
	m := verilog.Mask(ctxW)
	switch v := e.(type) {
	case *verilog.Number:
		k := v.Value & m
		return func(*Instance) uint64 { return k }, nil

	case *verilog.Ident:
		if pv, isParam := sc.env[v.Name]; isParam {
			k := uint64(pv) & m
			return func(*Instance) uint64 { return k }, nil
		}
		idx, ok := sc.names[v.Name]
		if !ok {
			return nil, errDynamic
		}
		return func(s *Instance) uint64 { return s.vals[idx] & m }, nil

	case *verilog.Unary:
		switch v.Op {
		case "!":
			x, err := c.compileSelf(v.X, sc)
			if err != nil {
				return nil, err
			}
			return func(s *Instance) uint64 { return b2u(x(s) == 0) }, nil
		case "-":
			x, err := c.compileExpr(v.X, sc, ctxW)
			if err != nil {
				return nil, err
			}
			return func(s *Instance) uint64 { return (-x(s)) & m }, nil
		case "+":
			return c.compileExpr(v.X, sc, ctxW)
		case "~":
			x, err := c.compileExpr(v.X, sc, ctxW)
			if err != nil {
				return nil, err
			}
			return func(s *Instance) uint64 { return (^x(s)) & m }, nil
		case "&", "|", "^", "~&", "~|", "~^":
			w, ok := c.staticWidthOf(v.X, sc)
			if !ok {
				return nil, errDynamic
			}
			x, err := c.compileExpr(v.X, sc, w)
			if err != nil {
				return nil, err
			}
			op := v.Op
			return func(s *Instance) uint64 { return reduce(op, x(s), w) }, nil
		}
		return nil, errDynamic

	case *verilog.Binary:
		return c.compileBinary(v, sc, ctxW)

	case *verilog.Ternary:
		cond, err := c.compileSelf(v.Cond, sc)
		if err != nil {
			return nil, err
		}
		then, err := c.compileExpr(v.Then, sc, ctxW)
		if err != nil {
			return nil, err
		}
		els, err := c.compileExpr(v.Else, sc, ctxW)
		if err != nil {
			return nil, err
		}
		return func(s *Instance) uint64 {
			if cond(s) != 0 {
				return then(s)
			}
			return els(s)
		}, nil

	case *verilog.Index:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return nil, errDynamic
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return nil, errDynamic
		}
		sel, err := c.compileSelf(v.Index, sc)
		if err != nil {
			return nil, err
		}
		si := c.s.d.sigs[idx]
		if si.isMem {
			return func(s *Instance) uint64 {
				sv := sel(s)
				mem := s.mems[idx]
				if sv >= uint64(len(mem)) {
					return 0
				}
				return mem[sv] & m
			}, nil
		}
		width := si.width
		return func(s *Instance) uint64 {
			sv := sel(s)
			if int(sv) >= width {
				return 0
			}
			return (s.vals[idx] >> uint(sv)) & 1
		}, nil

	case *verilog.PartSelect:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return nil, errDynamic
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return nil, errDynamic
		}
		if msb, ok1 := c.staticEval(v.MSB, sc); ok1 {
			if lsb, ok2 := c.staticEval(v.LSB, sc); ok2 {
				if msb < lsb {
					msb, lsb = lsb, msb
				}
				w := int(msb-lsb) + 1
				k := verilog.Mask(w) & m
				shift := uint(lsb)
				return func(s *Instance) uint64 { return (s.vals[idx] >> shift) & k }, nil
			}
		}
		msbFn, err := c.compileSelf(v.MSB, sc)
		if err != nil {
			return nil, err
		}
		lsbFn, err := c.compileSelf(v.LSB, sc)
		if err != nil {
			return nil, err
		}
		return func(s *Instance) uint64 {
			msb, lsb := msbFn(s), lsbFn(s)
			if msb < lsb {
				msb, lsb = lsb, msb
			}
			w := int(msb-lsb) + 1
			return (s.vals[idx] >> uint(lsb)) & verilog.Mask(w) & m
		}, nil

	case *verilog.Concat:
		type part struct {
			fn evalFn
			w  int
		}
		parts := make([]part, len(v.Parts))
		for i, p := range v.Parts {
			w, ok := c.staticWidthOf(p, sc)
			if !ok {
				return nil, errDynamic
			}
			fn, err := c.compileExpr(p, sc, w)
			if err != nil {
				return nil, err
			}
			parts[i] = part{fn: fn, w: w}
		}
		return func(s *Instance) uint64 {
			var out uint64
			for _, p := range parts {
				out = (out << uint(p.w)) | (p.fn(s) & verilog.Mask(p.w))
			}
			return out & m
		}, nil

	case *verilog.Repl:
		count, err := c.compileSelf(v.Count, sc)
		if err != nil {
			return nil, err
		}
		w, ok := c.staticWidthOf(v.Value, sc)
		if !ok {
			return nil, errDynamic
		}
		val, err := c.compileExpr(v.Value, sc, w)
		if err != nil {
			return nil, err
		}
		return func(s *Instance) uint64 {
			n := count(s)
			pv := val(s)
			var out uint64
			for i := uint64(0); i < n && i < 64; i++ {
				out = (out << uint(w)) | (pv & verilog.Mask(w))
			}
			return out & m
		}, nil
	}
	return nil, errDynamic
}

func (c *compiler) compileBinary(v *verilog.Binary, sc *scope, ctxW int) (evalFn, error) {
	m := verilog.Mask(ctxW)
	switch v.Op {
	case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
		x, err := c.compileExpr(v.X, sc, ctxW)
		if err != nil {
			return nil, err
		}
		y, err := c.compileExpr(v.Y, sc, ctxW)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "+":
			return func(s *Instance) uint64 { return (x(s) + y(s)) & m }, nil
		case "-":
			return func(s *Instance) uint64 { return (x(s) - y(s)) & m }, nil
		case "*":
			return func(s *Instance) uint64 { return (x(s) * y(s)) & m }, nil
		case "/":
			return func(s *Instance) uint64 {
				yv := y(s)
				if yv == 0 {
					return 0
				}
				return (x(s) / yv) & m
			}, nil
		case "%":
			return func(s *Instance) uint64 {
				yv := y(s)
				if yv == 0 {
					return 0
				}
				return (x(s) % yv) & m
			}, nil
		case "&":
			return func(s *Instance) uint64 { return x(s) & y(s) & m }, nil
		case "|":
			return func(s *Instance) uint64 { return (x(s) | y(s)) & m }, nil
		case "^":
			return func(s *Instance) uint64 { return (x(s) ^ y(s)) & m }, nil
		default: // ~^ ^~ xnor
			return func(s *Instance) uint64 { return (^(x(s) ^ y(s))) & m }, nil
		}

	case "==", "!=", "<", ">", "<=", ">=", "===", "!==":
		w, ok := c.staticWidthOf(v.X, sc)
		if !ok {
			return nil, errDynamic
		}
		yw, ok := c.staticWidthOf(v.Y, sc)
		if !ok {
			return nil, errDynamic
		}
		if yw > w {
			w = yw
		}
		x, err := c.compileExpr(v.X, sc, w)
		if err != nil {
			return nil, err
		}
		y, err := c.compileExpr(v.Y, sc, w)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "==", "===":
			return func(s *Instance) uint64 { return b2u(x(s) == y(s)) }, nil
		case "!=", "!==":
			return func(s *Instance) uint64 { return b2u(x(s) != y(s)) }, nil
		case "<":
			return func(s *Instance) uint64 { return b2u(x(s) < y(s)) }, nil
		case ">":
			return func(s *Instance) uint64 { return b2u(x(s) > y(s)) }, nil
		case "<=":
			return func(s *Instance) uint64 { return b2u(x(s) <= y(s)) }, nil
		default:
			return func(s *Instance) uint64 { return b2u(x(s) >= y(s)) }, nil
		}

	case "&&", "||":
		x, err := c.compileSelf(v.X, sc)
		if err != nil {
			return nil, err
		}
		y, err := c.compileSelf(v.Y, sc)
		if err != nil {
			return nil, err
		}
		// The interpreter evaluates both operands (no short circuit);
		// expressions are side-effect free so only the value matters.
		if v.Op == "&&" {
			return func(s *Instance) uint64 { return b2u(x(s) != 0 && y(s) != 0) }, nil
		}
		return func(s *Instance) uint64 { return b2u(x(s) != 0 || y(s) != 0) }, nil

	case "<<", "<<<":
		x, err := c.compileExpr(v.X, sc, ctxW)
		if err != nil {
			return nil, err
		}
		n, err := c.compileSelf(v.Y, sc)
		if err != nil {
			return nil, err
		}
		return func(s *Instance) uint64 {
			nv := n(s)
			if nv >= 64 {
				return 0
			}
			return (x(s) << uint(nv)) & m
		}, nil

	case ">>", ">>>":
		w, ok := c.staticWidthOf(v.X, sc)
		if !ok {
			return nil, errDynamic
		}
		if ctxW > w {
			w = ctxW
		}
		x, err := c.compileExpr(v.X, sc, w)
		if err != nil {
			return nil, err
		}
		n, err := c.compileSelf(v.Y, sc)
		if err != nil {
			return nil, err
		}
		return func(s *Instance) uint64 {
			nv := n(s)
			if nv >= 64 {
				return 0
			}
			return (x(s) >> uint(nv)) & m
		}, nil
	}
	return nil, errDynamic
}

// ---------------------------------------------------------------------------
// Static width analysis

// staticEval evaluates a constant expression (numbers, parameters and
// operators over them) with the interpreter's own evaluator, so the value
// is exactly what the reference engine would compute at runtime.
func (c *compiler) staticEval(e verilog.Expr, sc *scope) (uint64, bool) {
	v, ok := staticScope{instScope{c.s, sc}}.Const(e)
	return uint64(v), ok
}

// constOnly reports whether e references no signals (parameters and
// literals only) and uses only node types the evaluator supports.
func constOnly(e verilog.Expr, sc *scope) bool {
	ok := true
	verilog.WalkExpr(e, func(x verilog.Expr) bool {
		switch v := x.(type) {
		case *verilog.Ident:
			if _, isParam := sc.env[v.Name]; !isParam {
				ok = false
			}
		case *verilog.Number, *verilog.Unary, *verilog.Binary, *verilog.Ternary,
			*verilog.Concat, *verilog.Repl:
		default:
			ok = false
		}
		return ok
	})
	return ok
}

// staticScope is the compiler's scope for the width rule: a bound or
// count evaluates only when it reads no signal, so a width that depends
// on signal values comes back not static.
type staticScope struct{ instScope }

func (v staticScope) Const(e verilog.Expr) (int64, bool) {
	if !constOnly(e, v.sc) {
		return 0, false
	}
	return v.instScope.Const(e)
}

// staticWidthOf is widthOf for expressions whose self-determined width
// does not depend on signal values; ok is false for the others.
func (c *compiler) staticWidthOf(e verilog.Expr, sc *scope) (int, bool) {
	return verilog.SelfWidth(e, staticScope{instScope{c.s, sc}})
}

// staticWidthOfLHS is widthOfLHS for statically sized l-values.
func (c *compiler) staticWidthOfLHS(lhs verilog.Expr, sc *scope) (int, bool) {
	return verilog.TargetWidth(lhs, staticScope{instScope{c.s, sc}})
}

// ---------------------------------------------------------------------------
// Levelization and the clean-design analysis

// levelize topologically orders the combinational processes and decides
// whether the levelized sweep provably reaches the event-driven fixpoint.
// Any violation returns a reason and the design keeps the event scheduler
// (with compiled bodies).
func (c *compiler) levelize() (order []int, reason string) {
	d := c.s.d
	var comb []int
	seqWritten := map[int]bool{}
	for _, p := range d.procs {
		switch p.kind {
		case procComb:
			if p.body != nil {
				if len(p.edges) > 0 {
					return nil, "explicit level-sensitive list (incomplete-sensitivity semantics)"
				}
				if hasNBA(p.body) {
					return nil, "non-blocking assignment in combinational process"
				}
				if !selfStable(p) {
					return nil, "combinational process reads its own pre-execution state"
				}
			}
			comb = append(comb, p.idx)
		case procSeq:
			for _, sig := range writeSet(p) {
				seqWritten[sig] = true
			}
		}
	}

	// Combinational drivers may share a signal only on provably disjoint
	// bit ranges (ripple-carry style part-select connections); any overlap
	// is order-dependent. Driven signals must also be disjoint from
	// sequential drivers and from externally driven top-level inputs.
	writers := map[int][]int{}      // signal -> comb writer procs
	writtenBits := map[int]uint64{} // signal -> union of written bit masks
	for _, pi := range comb {
		// Merge this process's writes per signal first: overlap within one
		// process (y = 0; y[0] = x) is ordinary sequential execution, only
		// overlap between processes is order-dependent.
		var merged []sigMask
		index := map[int]int{}
		for _, wr := range c.maskedWriteSet(d.procs[pi]) {
			if j, ok := index[wr.sig]; ok {
				merged[j].mask |= wr.mask
			} else {
				index[wr.sig] = len(merged)
				merged = append(merged, wr)
			}
		}
		for _, wr := range merged {
			if writtenBits[wr.sig]&wr.mask != 0 {
				return nil, "signal bits with multiple combinational drivers"
			}
			writtenBits[wr.sig] |= wr.mask
			writers[wr.sig] = append(writers[wr.sig], pi)
			if seqWritten[wr.sig] {
				return nil, "signal driven by both combinational and sequential processes"
			}
		}
	}
	for _, in := range d.inputs {
		if idx, ok := d.byName[in.Name]; ok {
			if _, w := writers[idx]; w {
				return nil, "combinationally driven top-level input"
			}
		}
	}

	// Edge triggers are the one observer of *intermediate* states: under
	// event scheduling a derived/gated clock can glitch — a transient
	// pulse between two fixpoints fires a posedge that the settled values
	// never show — while the topological sweep computes fixpoints only and
	// produces no glitches. Designs clocking anything off a combinationally
	// driven signal therefore keep the event scheduler.
	for _, p := range d.procs {
		if p.kind != procSeq {
			continue
		}
		for _, ed := range p.edges {
			if _, comb := writers[ed.sig]; comb {
				return nil, "edge trigger on combinationally driven signal (glitch semantics)"
			}
		}
	}

	// Dependency edges: the drivers of every signal a process reads must
	// run first. Self-edges of always bodies are legal (a block does not
	// re-trigger on its own writes); self-edges of continuous assignments
	// are genuine combinational loops.
	succ := make(map[int][]int, len(comb))
	indeg := make(map[int]int, len(comb))
	for _, pi := range comb {
		indeg[pi] += 0
	}
	for _, pi := range comb {
		p := d.procs[pi]
		for _, dep := range p.combDeps(d) {
			for _, w := range writers[dep] {
				if w == pi && p.body != nil {
					continue
				}
				succ[w] = append(succ[w], pi)
				indeg[pi]++
			}
		}
	}
	frontier := make([]int, 0, len(comb))
	for _, pi := range comb {
		if indeg[pi] == 0 {
			frontier = append(frontier, pi)
		}
	}
	for len(frontier) > 0 {
		var next []int
		for _, pi := range frontier {
			order = append(order, pi)
			for _, q := range succ[pi] {
				indeg[q]--
				if indeg[q] == 0 {
					next = append(next, q)
				}
			}
		}
		frontier = next
	}
	if len(order) != len(comb) {
		return nil, "combinational cycle"
	}
	return order, ""
}

// hasNBA reports whether a statement tree contains a non-blocking
// assignment.
func hasNBA(body verilog.Stmt) bool {
	found := false
	verilog.WalkStmt(body, func(st verilog.Stmt) bool {
		if a, ok := st.(*verilog.Assign); ok && !a.Blocking {
			found = true
		}
		return !found
	})
	return found
}

// sigMask identifies the bits of one signal a process may write. Memories
// are tracked whole (mask = all ones).
type sigMask struct {
	sig  int
	mask uint64
}

// maskedWriteSet returns the bits each combinational process may write,
// at bit granularity where the l-value is statically resolvable and
// conservatively whole-signal otherwise.
func (c *compiler) maskedWriteSet(p *process) []sigMask {
	var out []sigMask
	var addLHS func(e verilog.Expr, sc *scope)
	addLHS = func(e verilog.Expr, sc *scope) {
		switch l := e.(type) {
		case *verilog.Ident:
			if idx, ok := sc.names[l.Name]; ok {
				out = append(out, sigMask{idx, verilog.Mask(c.s.d.sigs[idx].width)})
			}
		case *verilog.Index:
			id, ok := l.X.(*verilog.Ident)
			if !ok {
				return
			}
			idx, ok := sc.names[id.Name]
			if !ok {
				return
			}
			si := c.s.d.sigs[idx]
			if si.isMem {
				out = append(out, sigMask{idx, ^uint64(0)})
				return
			}
			if sel, selOK := c.staticEval(l.Index, sc); selOK {
				if int(sel) < si.width {
					out = append(out, sigMask{idx, 1 << uint(sel)})
				}
				return // constant out-of-range bit writes are dropped
			}
			out = append(out, sigMask{idx, verilog.Mask(si.width)})
		case *verilog.PartSelect:
			id, ok := l.X.(*verilog.Ident)
			if !ok {
				return
			}
			idx, ok := sc.names[id.Name]
			if !ok {
				return
			}
			msb, ok1 := c.staticEval(l.MSB, sc)
			lsb, ok2 := c.staticEval(l.LSB, sc)
			if ok1 && ok2 {
				if msb < lsb {
					msb, lsb = lsb, msb
				}
				w := int(msb-lsb) + 1
				out = append(out, sigMask{idx, verilog.Mask(w) << uint(lsb)})
				return
			}
			out = append(out, sigMask{idx, verilog.Mask(c.s.d.sigs[idx].width)})
		case *verilog.Concat:
			for _, part := range l.Parts {
				addLHS(part, sc)
			}
		}
	}
	if p.connRHS != nil {
		addLHS(p.connLHS, p.connLHSsc)
		return out
	}
	verilog.WalkStmt(p.body, func(st verilog.Stmt) bool {
		switch v := st.(type) {
		case *verilog.Assign:
			addLHS(v.LHS, p.sc)
		case *verilog.For:
			if v.Init != nil {
				addLHS(v.Init.LHS, p.sc)
			}
			if v.Step != nil {
				addLHS(v.Step.LHS, p.sc)
			}
		}
		return true
	})
	return out
}

// writeSet returns the global indices of every signal a process may write
// (blocking or non-blocking, full or partial).
func writeSet(p *process) []int {
	seen := map[int]bool{}
	var out []int
	add := func(e verilog.Expr, sc *scope) {
		for _, name := range verilog.LHSTargets(e) {
			if idx, ok := sc.names[name]; ok && !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
		}
	}
	if p.connRHS != nil {
		add(p.connLHS, p.connLHSsc)
		return out
	}
	verilog.WalkStmt(p.body, func(st verilog.Stmt) bool {
		switch v := st.(type) {
		case *verilog.Assign:
			add(v.LHS, p.sc)
		case *verilog.For:
			// WalkStmt does not descend into the init/step assignments.
			if v.Init != nil {
				add(v.Init.LHS, p.sc)
			}
			if v.Step != nil {
				add(v.Step.LHS, p.sc)
			}
		}
		return true
	})
	return out
}

// selfStable reports whether re-executing a combinational always body with
// unchanged inputs is a provable no-op. The one hazard is a
// read-modify-write of the block's own state (e.g. "x = x + 1" without a
// prior definite assignment): event-driven execution runs such a block
// once per external trigger, while the levelized sweep would run it once
// per delta round. Loop counters are fine — the for-init assigns them
// before the first read.
func selfStable(p *process) bool {
	own := map[int]bool{}
	for _, sig := range writeSet(p) {
		own[sig] = true
	}
	pre := map[int]bool{}
	scanStmt(p.body, p.sc, map[int]bool{}, pre)
	for sig := range pre {
		if own[sig] {
			return false
		}
	}
	return true
}

// scanStmt walks a body in execution order tracking definitely-assigned
// signals; any signal whose pre-execution value may be observed (read, or
// partially overwritten, before a definite full assignment) lands in pre.
func scanStmt(st verilog.Stmt, sc *scope, written, pre map[int]bool) {
	switch v := st.(type) {
	case nil, *verilog.NullStmt:
	case *verilog.Block:
		for _, sub := range v.Stmts {
			scanStmt(sub, sc, written, pre)
		}
	case *verilog.Assign:
		scanAssign(v, sc, written, pre)
	case *verilog.If:
		scanReads(v.Cond, sc, written, pre)
		tw := copySet(written)
		scanStmt(v.Then, sc, tw, pre)
		ew := copySet(written)
		if v.Else != nil {
			scanStmt(v.Else, sc, ew, pre)
		}
		for k := range tw {
			if ew[k] {
				written[k] = true
			}
		}
	case *verilog.Case:
		scanReads(v.Expr, sc, written, pre)
		hasDefault := false
		var branchWrites []map[int]bool
		for i := range v.Items {
			it := &v.Items[i]
			if it.Exprs == nil {
				hasDefault = true
			}
			for _, ex := range it.Exprs {
				scanReads(ex, sc, written, pre)
			}
			bw := copySet(written)
			scanStmt(it.Body, sc, bw, pre)
			branchWrites = append(branchWrites, bw)
		}
		if hasDefault && len(branchWrites) > 0 {
			inter := branchWrites[0]
			for _, bw := range branchWrites[1:] {
				for k := range inter {
					if !bw[k] {
						delete(inter, k)
					}
				}
			}
			for k := range inter {
				written[k] = true
			}
		}
	case *verilog.For:
		if v.Init != nil {
			scanAssign(v.Init, sc, written, pre)
		}
		scanReads(v.Cond, sc, written, pre)
		// Zero iterations possible: body/step writes are not definite.
		bw := copySet(written)
		scanStmt(v.Body, sc, bw, pre)
		if v.Step != nil {
			scanAssign(v.Step, sc, bw, pre)
		}
	default:
		// Unsupported statement: treat as opaque — everything it mentions
		// may be a pre-execution read (it will error at runtime anyway).
		verilog.WalkStmt(st, func(sub verilog.Stmt) bool {
			if a, ok := sub.(*verilog.Assign); ok {
				scanReads(a.RHS, sc, written, pre)
				scanReads(a.LHS, sc, written, pre)
			}
			return true
		})
	}
}

func scanAssign(a *verilog.Assign, sc *scope, written, pre map[int]bool) {
	if a == nil {
		return
	}
	scanReads(a.RHS, sc, written, pre)
	scanLHS(a.LHS, sc, written, pre)
}

func scanLHS(lhs verilog.Expr, sc *scope, written, pre map[int]bool) {
	switch l := lhs.(type) {
	case *verilog.Ident:
		if idx, ok := sc.names[l.Name]; ok {
			written[idx] = true
		}
	case *verilog.Index:
		scanReads(l.Index, sc, written, pre)
		markPartial(l.X, sc, written, pre)
	case *verilog.PartSelect:
		scanReads(l.MSB, sc, written, pre)
		scanReads(l.LSB, sc, written, pre)
		markPartial(l.X, sc, written, pre)
	case *verilog.Concat:
		for _, p := range l.Parts {
			scanLHS(p, sc, written, pre)
		}
	}
}

// markPartial records a bit/part/memory-word write: the store merges with
// the target's pre-execution bits unless the target was fully assigned
// earlier in the body.
func markPartial(base verilog.Expr, sc *scope, written, pre map[int]bool) {
	id, ok := base.(*verilog.Ident)
	if !ok {
		return
	}
	if idx, ok := sc.names[id.Name]; ok && !written[idx] {
		pre[idx] = true
	}
}

func scanReads(e verilog.Expr, sc *scope, written, pre map[int]bool) {
	verilog.WalkExpr(e, func(x verilog.Expr) bool {
		if id, ok := x.(*verilog.Ident); ok {
			if _, isParam := sc.env[id.Name]; isParam {
				return true
			}
			if idx, ok := sc.names[id.Name]; ok && !written[idx] {
				pre[idx] = true
			}
		}
		return true
	})
}

func copySet(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
