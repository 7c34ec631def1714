package sim

import (
	"fmt"

	"uvllm/internal/verilog"
)

// Instance is the mutable half of a simulation: the signal arena, the
// memories, the event queues and the NBA buffer of one run of a Program.
// Instances are cheap to create (Program.NewInstance), Reset, Snapshot
// and Restore; the immutable design tables and compiled closures they
// execute live in the shared Program. The zero value is not usable;
// construct with Program.NewInstance or the CompileAndNew wrappers.
type Instance struct {
	program *Program // owning program (immutable, shared)
	d       *Design  // == program.Design(), cached for the hot path
	vals    []uint64
	mems    [][]uint64 // per signal index; nil for non-memories

	combQueue []int
	inQueue   []bool
	seqQueue  []int
	seqSpare  []int // the drained seqQueue, reused as the next one
	inSeq     []bool
	nba       []nbaWrite
	running   int // index of the currently executing process, or -1

	backend   Backend
	code      *program // compiled closures; nil for the event-driven backend
	levelized bool     // compiled AND cleanly levelizable: sweep scheduler active
	needSweep bool     // levelized mode: a combinational process is dirty
	inSweep   bool     // levelized mode: currently inside a sweep
	dirty     []bool   // levelized mode: per-process triggered flag

	// DeltaLimit bounds combinational settle iterations per Settle call;
	// exceeding it reports an oscillation error. Defaults to 10000.
	DeltaLimit int

	cov *instCover // structural coverage state; nil when not collecting
}

type nbaWrite struct {
	sig    int
	isMem  bool
	memIdx int
	mask   uint64
	val    uint64
}

// CompileAndNew parses src and simulates module top on the default
// compiled backend. It returns an error for syntax errors, making it
// usable as the pipeline's "does it compile" gate (the paper's synthesis
// check after each patch).
func CompileAndNew(src, top string) (*Instance, error) {
	return CompileAndNewBackend(src, top, BackendCompiled)
}

// CompileAndNewBackend is CompileAndNew with an explicit backend:
// CompileSource followed by NewInstance.
func CompileAndNewBackend(src, top string, backend Backend) (*Instance, error) {
	p, err := CompileSource(src, top, backend)
	if err != nil {
		return nil, err
	}
	return p.NewInstance()
}

// Backend returns the engine the simulator was constructed with.
func (s *Instance) Backend() Backend { return s.backend }

// Levelized reports whether the compiled backend's levelized straight-line
// sweep is active (false on the event-driven backend, and for compiled
// designs that fell back to event scheduling).
func (s *Instance) Levelized() bool { return s.levelized }

// FallbackReason explains why a compiled simulator is not running the
// levelized sweep ("" when it is, or on the event-driven backend).
func (s *Instance) FallbackReason() string {
	if s.code == nil {
		return ""
	}
	return s.code.reason
}

// Design returns the elaborated design.
func (s *Instance) Design() *Design { return s.d }

// Program returns the immutable program this instance executes (nil only
// for the compiler's internal scratch instance, which never simulates).
func (s *Instance) Program() *Program { return s.program }

// Reset zeroes all state, re-runs initial blocks and settles.
func (s *Instance) Reset() error {
	for i := range s.vals {
		s.vals[i] = 0
	}
	for _, mem := range s.mems {
		for i := range mem {
			mem[i] = 0
		}
	}
	s.combQueue = s.combQueue[:0]
	s.seqQueue = s.seqQueue[:0]
	s.nba = s.nba[:0]
	s.needSweep = false
	s.inSweep = false
	for i := range s.inQueue {
		s.inQueue[i] = false
		s.inSeq[i] = false
	}
	for i := range s.dirty {
		s.dirty[i] = false
	}
	for _, p := range s.d.procs {
		switch p.kind {
		case procInit:
			if err := s.execStmt(p, p.body); err != nil {
				return err
			}
		case procComb:
			if s.levelized {
				s.dirty[p.idx] = true
			} else {
				s.enqueueComb(p.idx)
			}
		}
	}
	if s.levelized {
		s.needSweep = true
	}
	return s.Settle()
}

// Set drives a signal by hierarchical name (normally a top-level input)
// without settling. Returns an error for unknown names.
func (s *Instance) Set(name string, v uint64) error {
	idx, ok := s.d.byName[name]
	if !ok {
		return fmt.Errorf("sim: unknown signal %q", name)
	}
	s.set(idx, v)
	return nil
}

// Get reads a signal by hierarchical name. Unknown names read 0.
func (s *Instance) Get(name string) uint64 {
	idx, ok := s.d.byName[name]
	if !ok {
		return 0
	}
	return s.vals[idx]
}

// Has reports whether the design has a signal with the given name.
func (s *Instance) Has(name string) bool {
	_, ok := s.d.byName[name]
	return ok
}

// GetMem reads one word of a memory signal.
func (s *Instance) GetMem(name string, idx int) uint64 {
	i, ok := s.d.byName[name]
	if !ok {
		return 0
	}
	mem := s.mems[i]
	if idx < 0 || idx >= len(mem) {
		return 0
	}
	return mem[idx]
}

func (s *Instance) enqueueComb(proc int) {
	if !s.inQueue[proc] {
		s.inQueue[proc] = true
		s.combQueue = append(s.combQueue, proc)
	}
}

func (s *Instance) enqueueSeq(proc int) {
	if !s.inSeq[proc] {
		s.inSeq[proc] = true
		s.seqQueue = append(s.seqQueue, proc)
	}
}

// set writes a raw signal value, detecting edges and scheduling dependents.
func (s *Instance) set(idx int, v uint64) {
	w := s.d.sigs[idx].width
	v &= verilog.Mask(w)
	old := s.vals[idx]
	if old == v {
		return
	}
	s.vals[idx] = v
	if s.levelized {
		s.markDirty(idx)
	} else {
		for _, p := range s.d.combOf[idx] {
			// An always block does not re-trigger on changes it makes itself
			// (the sensitivity wait re-arms when the block finishes, at which
			// point its own events have passed). Continuous assignments do:
			// "assign x = ~x" is a genuine combinational loop.
			if p == s.running && s.d.procs[p].body != nil {
				continue
			}
			s.enqueueComb(p)
		}
	}
	oldBit, newBit := old&1, v&1
	for _, ew := range s.d.edgeOf[idx] {
		if ew.pos && oldBit == 0 && newBit == 1 {
			s.enqueueSeq(ew.proc)
		}
		if !ew.pos && oldBit == 1 && newBit == 0 {
			s.enqueueSeq(ew.proc)
		}
	}
}

// touchMem wakes the combinational readers of a memory after a word write
// (memory contents are not part of the scalar change-detection in set).
func (s *Instance) touchMem(sig int) {
	if s.levelized {
		s.markDirty(sig)
		return
	}
	for _, p := range s.d.combOf[sig] {
		if p == s.running && s.d.procs[p].body != nil {
			continue
		}
		s.enqueueComb(p)
	}
}

// Settle runs until no activity remains: combinational fixpoint, then NBA
// commits, then triggered sequential processes, looping. The levelized
// compiled backend replaces the event-queue walk of the combinational
// phase with straight-line sweeps; everything else is shared.
func (s *Instance) Settle() error {
	if s.levelized {
		return s.settleLevelized()
	}
	steps := 0
	for {
		for len(s.combQueue) > 0 {
			steps++
			if steps > s.DeltaLimit {
				return fmt.Errorf("sim: combinational logic did not converge after %d deltas (oscillation)", s.DeltaLimit)
			}
			proc := s.combQueue[0]
			s.combQueue = s.combQueue[1:]
			s.inQueue[proc] = false
			if err := s.runProc(s.d.procs[proc]); err != nil {
				return err
			}
		}
		if len(s.nba) > 0 {
			s.commitNBAs()
			continue
		}
		if len(s.seqQueue) > 0 {
			if err := s.runSeqQueue(); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// markDirty triggers the combinational readers of a changed signal in
// levelized mode, mirroring the event engine's self-trigger guard. A
// sweep only needs (re)scheduling when the write happens outside one: in
// topological order every reader runs after its drivers, so in-sweep
// writes only ever dirty processes later in the current pass.
func (s *Instance) markDirty(idx int) {
	marked := false
	for _, p := range s.d.combOf[idx] {
		if p == s.running && s.d.procs[p].body != nil {
			continue
		}
		s.dirty[p] = true
		marked = true
	}
	if marked && !s.inSweep {
		s.needSweep = true
	}
}

// settleLevelized is Settle for the compiled fast path: each delta round
// evaluates the triggered combinational processes once in topological
// order (an acyclic, single-driver network reaches its unique fixpoint in
// a single pass), then commits the batched NBA writes, then runs
// edge-triggered processes, looping until quiet.
func (s *Instance) settleLevelized() error {
	steps := 0
	for {
		if s.needSweep {
			steps++
			if steps > s.DeltaLimit {
				return fmt.Errorf("sim: combinational logic did not converge after %d deltas (oscillation)", s.DeltaLimit)
			}
			s.needSweep = false
			s.inSweep = true
			for i, pi := range s.code.order {
				if !s.dirty[pi] {
					continue
				}
				s.dirty[pi] = false
				s.running = pi
				err := s.code.orderFns[i](s)
				s.running = -1
				if err != nil {
					s.inSweep = false
					return err
				}
			}
			s.inSweep = false
			// Defense in depth: forward-only dataflow means no process
			// behind the cursor can have been re-dirtied; if the static
			// analysis ever misses a case, re-sweep (and ultimately trip
			// the delta limit) rather than diverge silently.
			for _, pi := range s.code.order {
				if s.dirty[pi] {
					s.needSweep = true
					break
				}
			}
		}
		if len(s.nba) > 0 {
			s.commitNBAs()
			continue
		}
		if len(s.seqQueue) > 0 {
			if err := s.runSeqQueue(); err != nil {
				return err
			}
			continue
		}
		if s.needSweep {
			continue
		}
		return nil
	}
}

// commitNBAs commits the pending non-blocking writes in order and
// empties the queue in place: a commit only sets values and schedules
// processes, it never queues another write.
func (s *Instance) commitNBAs() {
	for _, w := range s.nba {
		s.commitNBA(w)
	}
	s.nba = s.nba[:0]
}

// runSeqQueue runs the queued edge-triggered processes in order. A
// process it runs may queue more, so the queue is swapped with the spare
// first and the drained slice becomes the next spare.
func (s *Instance) runSeqQueue() error {
	procs := s.seqQueue
	s.seqQueue, s.seqSpare = s.seqSpare[:0], procs
	for _, pi := range procs {
		s.inSeq[pi] = false
		if err := s.runProc(s.d.procs[pi]); err != nil {
			return err
		}
	}
	return nil
}

func (s *Instance) commitNBA(w nbaWrite) {
	if w.isMem {
		mem := s.mems[w.sig]
		if w.memIdx >= 0 && w.memIdx < len(mem) {
			old := mem[w.memIdx]
			mem[w.memIdx] = (old &^ w.mask) | (w.val & w.mask)
			if mem[w.memIdx] != old {
				s.touchMem(w.sig)
			}
		}
		return
	}
	old := s.vals[w.sig]
	s.set(w.sig, (old&^w.mask)|(w.val&w.mask))
}

func (s *Instance) runProc(p *process) error {
	prev := s.running
	s.running = p.idx
	defer func() { s.running = prev }()
	if s.code != nil {
		if fn := s.code.run[p.idx]; fn != nil {
			return fn(s)
		}
	}
	return s.interpProc(p)
}

// interpProc runs one process through the reference interpreter (the
// caller manages s.running).
func (s *Instance) interpProc(p *process) error {
	if p.connRHS != nil {
		w := s.widthOfLHS(p.connLHS, p.connLHSsc)
		rw := s.widthOf(p.connRHS, p.connRHSsc)
		if rw > w {
			w = rw
		}
		v, err := s.eval(p.connRHS, p.connRHSsc, w)
		if err != nil {
			return err
		}
		return s.writeLHS(p.connLHS, p.connLHSsc, v, true)
	}
	return s.execStmt(p, p.body)
}

// execStmt interprets one statement within process p.
func (s *Instance) execStmt(p *process, st verilog.Stmt) error {
	switch v := st.(type) {
	case nil, *verilog.NullStmt:
		return nil
	case *verilog.Block:
		for _, sub := range v.Stmts {
			if err := s.execStmt(p, sub); err != nil {
				return err
			}
		}
		return nil
	case *verilog.Assign:
		return s.execAssign(p, v)
	case *verilog.If:
		c, err := s.evalSelf(v.Cond, p.sc)
		if err != nil {
			return err
		}
		if c != 0 {
			return s.execStmt(p, v.Then)
		}
		if v.Else != nil {
			return s.execStmt(p, v.Else)
		}
		return nil
	case *verilog.Case:
		sel, err := s.evalSelf(v.Expr, p.sc)
		if err != nil {
			return err
		}
		var def *verilog.CaseItem
		for i := range v.Items {
			it := &v.Items[i]
			if it.Exprs == nil {
				def = it
				continue
			}
			for _, ex := range it.Exprs {
				lv, err := s.evalSelf(ex, p.sc)
				if err != nil {
					return err
				}
				if lv == sel {
					return s.execStmt(p, it.Body)
				}
			}
		}
		if def != nil {
			return s.execStmt(p, def.Body)
		}
		return nil
	case *verilog.For:
		if v.Init != nil {
			if err := s.execAssign(p, v.Init); err != nil {
				return err
			}
		}
		for iter := 0; ; iter++ {
			if iter > 1<<16 {
				return fmt.Errorf("sim: for loop at line %d exceeded %d iterations", v.Line, 1<<16)
			}
			c, err := s.evalSelf(v.Cond, p.sc)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := s.execStmt(p, v.Body); err != nil {
				return err
			}
			if v.Step != nil {
				if err := s.execAssign(p, v.Step); err != nil {
					return err
				}
			}
		}
	}
	return fmt.Errorf("sim: unsupported statement %T", st)
}

func (s *Instance) execAssign(p *process, a *verilog.Assign) error {
	if a == nil {
		return nil
	}
	w := s.widthOfLHS(a.LHS, p.sc)
	rw := s.widthOf(a.RHS, p.sc)
	if rw > w {
		w = rw
	}
	v, err := s.eval(a.RHS, p.sc, w)
	if err != nil {
		return err
	}
	return s.writeLHS(a.LHS, p.sc, v, a.Blocking)
}

// writeLHS stores v into the l-value. Blocking writes apply immediately;
// non-blocking writes are deferred to the NBA phase with targets resolved
// now, per the standard.
func (s *Instance) writeLHS(lhs verilog.Expr, sc *scope, v uint64, blocking bool) error {
	switch l := lhs.(type) {
	case *verilog.Ident:
		idx, ok := sc.names[l.Name]
		if !ok {
			return fmt.Errorf("sim: assignment to undeclared %q (line %d)", l.Name, l.Line)
		}
		w := s.d.sigs[idx].width
		if blocking {
			s.set(idx, v)
		} else {
			s.nba = append(s.nba, nbaWrite{sig: idx, mask: verilog.Mask(w), val: v & verilog.Mask(w)})
		}
		return nil

	case *verilog.Index:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("sim: unsupported nested l-value at line %d", l.Line)
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return fmt.Errorf("sim: assignment to undeclared %q (line %d)", id.Name, id.Line)
		}
		sel, err := s.evalSelf(l.Index, sc)
		if err != nil {
			return err
		}
		si := s.d.sigs[idx]
		if si.isMem {
			w := verilog.Mask(si.width)
			if blocking {
				mem := s.mems[idx]
				// Unsigned compare: an index with bit 63 set must fall out
				// of range, not wrap negative past the bounds check.
				if sel < uint64(len(mem)) && mem[sel] != v&w {
					mem[sel] = v & w
					s.touchMem(idx)
				}
				return nil
			}
			s.nba = append(s.nba, nbaWrite{sig: idx, isMem: true, memIdx: int(sel), mask: w, val: v & w})
			return nil
		}
		if int(sel) >= si.width {
			return nil // out-of-range bit write ignored (x in 4-state)
		}
		mask := uint64(1) << uint(sel)
		if blocking {
			s.set(idx, (s.vals[idx]&^mask)|((v&1)<<uint(sel)))
		} else {
			s.nba = append(s.nba, nbaWrite{sig: idx, mask: mask, val: (v & 1) << uint(sel)})
		}
		return nil

	case *verilog.PartSelect:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("sim: unsupported nested l-value at line %d", l.Line)
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return fmt.Errorf("sim: assignment to undeclared %q (line %d)", id.Name, id.Line)
		}
		msb, err := s.evalSelf(l.MSB, sc)
		if err != nil {
			return err
		}
		lsb, err := s.evalSelf(l.LSB, sc)
		if err != nil {
			return err
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		mask := verilog.Mask(w) << uint(lsb)
		val := (v & verilog.Mask(w)) << uint(lsb)
		if blocking {
			s.set(idx, (s.vals[idx]&^mask)|val)
		} else {
			s.nba = append(s.nba, nbaWrite{sig: idx, mask: mask, val: val})
		}
		return nil

	case *verilog.Concat:
		// MSB-first: the first part receives the top bits.
		total := 0
		widths := make([]int, len(l.Parts))
		for i, part := range l.Parts {
			w := s.widthOfLHS(part, sc)
			widths[i] = w
			total += w
		}
		shift := total
		for i, part := range l.Parts {
			shift -= widths[i]
			pv := (v >> uint(shift)) & verilog.Mask(widths[i])
			if err := s.writeLHS(part, sc, pv, blocking); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sim: unsupported l-value %T", lhs)
}

// instScope resolves names and constants for the width rule
// (verilog.SelfWidth, verilog.TargetWidth) in the interpreter, which
// evaluates part-select bounds and replication counts at run time.
type instScope struct {
	s  *Instance
	sc *scope
}

func (v instScope) IsParam(name string) bool {
	_, ok := v.sc.env[name]
	return ok
}

func (v instScope) Signal(name string) (int, bool, bool) {
	idx, ok := v.sc.names[name]
	if !ok {
		return 0, false, false
	}
	sig := &v.s.d.sigs[idx]
	return sig.width, sig.isMem, true
}

func (v instScope) Const(e verilog.Expr) (int64, bool) {
	x, err := v.s.evalSelf(e, v.sc)
	return int64(x), err == nil
}

// widthOfLHS is the declared width of an l-value.
func (s *Instance) widthOfLHS(lhs verilog.Expr, sc *scope) int {
	w, _ := verilog.TargetWidth(lhs, instScope{s, sc})
	return w
}

// widthOf is the self-determined width of an expression.
func (s *Instance) widthOf(e verilog.Expr, sc *scope) int {
	w, _ := verilog.SelfWidth(e, instScope{s, sc})
	return w
}

// evalSelf evaluates e at its self-determined width.
func (s *Instance) evalSelf(e verilog.Expr, sc *scope) (uint64, error) {
	return s.eval(e, sc, s.widthOf(e, sc))
}

// eval evaluates e in context width ctxW (context-determined operands are
// evaluated at ctxW; self-determined ones at their own width). The result
// is masked to ctxW bits.
func (s *Instance) eval(e verilog.Expr, sc *scope, ctxW int) (uint64, error) {
	m := verilog.Mask(ctxW)
	switch v := e.(type) {
	case *verilog.Number:
		return v.Value & m, nil

	case *verilog.Ident:
		if pv, isParam := sc.env[v.Name]; isParam {
			return uint64(pv) & m, nil
		}
		idx, ok := sc.names[v.Name]
		if !ok {
			return 0, fmt.Errorf("sim: read of undeclared signal %q (line %d)", v.Name, v.Line)
		}
		return s.vals[idx] & m, nil

	case *verilog.Unary:
		switch v.Op {
		case "!":
			x, err := s.evalSelf(v.X, sc)
			if err != nil {
				return 0, err
			}
			return b2u(x == 0), nil
		case "-":
			x, err := s.eval(v.X, sc, ctxW)
			if err != nil {
				return 0, err
			}
			return (-x) & m, nil
		case "+":
			return s.eval(v.X, sc, ctxW)
		case "~":
			x, err := s.eval(v.X, sc, ctxW)
			if err != nil {
				return 0, err
			}
			return (^x) & m, nil
		case "&", "|", "^", "~&", "~|", "~^":
			w := s.widthOf(v.X, sc)
			x, err := s.eval(v.X, sc, w)
			if err != nil {
				return 0, err
			}
			return reduce(v.Op, x, w), nil
		}
		return 0, fmt.Errorf("sim: unsupported unary %q", v.Op)

	case *verilog.Binary:
		return s.evalBinary(v, sc, ctxW)

	case *verilog.Ternary:
		c, err := s.evalSelf(v.Cond, sc)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return s.eval(v.Then, sc, ctxW)
		}
		return s.eval(v.Else, sc, ctxW)

	case *verilog.Index:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return 0, fmt.Errorf("sim: unsupported select base at line %d", v.Line)
		}
		sel, err := s.evalSelf(v.Index, sc)
		if err != nil {
			return 0, err
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return 0, fmt.Errorf("sim: read of undeclared signal %q (line %d)", id.Name, id.Line)
		}
		si := s.d.sigs[idx]
		if si.isMem {
			mem := s.mems[idx]
			if sel >= uint64(len(mem)) {
				return 0, nil
			}
			return mem[sel] & m, nil
		}
		if int(sel) >= si.width {
			return 0, nil
		}
		return (s.vals[idx] >> uint(sel)) & 1, nil

	case *verilog.PartSelect:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return 0, fmt.Errorf("sim: unsupported select base at line %d", v.Line)
		}
		idx, ok := sc.names[id.Name]
		if !ok {
			return 0, fmt.Errorf("sim: read of undeclared signal %q (line %d)", id.Name, id.Line)
		}
		msb, err := s.evalSelf(v.MSB, sc)
		if err != nil {
			return 0, err
		}
		lsb, err := s.evalSelf(v.LSB, sc)
		if err != nil {
			return 0, err
		}
		if msb < lsb {
			msb, lsb = lsb, msb
		}
		w := int(msb-lsb) + 1
		return (s.vals[idx] >> uint(lsb)) & verilog.Mask(w) & m, nil

	case *verilog.Concat:
		var out uint64
		for _, p := range v.Parts {
			w := s.widthOf(p, sc)
			pv, err := s.eval(p, sc, w)
			if err != nil {
				return 0, err
			}
			out = (out << uint(w)) | (pv & verilog.Mask(w))
		}
		return out & m, nil

	case *verilog.Repl:
		n, err := s.evalSelf(v.Count, sc)
		if err != nil {
			return 0, err
		}
		w := s.widthOf(v.Value, sc)
		pv, err := s.eval(v.Value, sc, w)
		if err != nil {
			return 0, err
		}
		var out uint64
		for i := uint64(0); i < n && i < 64; i++ {
			out = (out << uint(w)) | (pv & verilog.Mask(w))
		}
		return out & m, nil
	}
	return 0, fmt.Errorf("sim: unsupported expression %T", e)
}

func (s *Instance) evalBinary(v *verilog.Binary, sc *scope, ctxW int) (uint64, error) {
	m := verilog.Mask(ctxW)
	switch v.Op {
	case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
		x, err := s.eval(v.X, sc, ctxW)
		if err != nil {
			return 0, err
		}
		y, err := s.eval(v.Y, sc, ctxW)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return (x + y) & m, nil
		case "-":
			return (x - y) & m, nil
		case "*":
			return (x * y) & m, nil
		case "/":
			if y == 0 {
				return 0, nil
			}
			return (x / y) & m, nil
		case "%":
			if y == 0 {
				return 0, nil
			}
			return (x % y) & m, nil
		case "&":
			return x & y & m, nil
		case "|":
			return (x | y) & m, nil
		case "^":
			return (x ^ y) & m, nil
		default: // ~^ ^~ xnor
			return (^(x ^ y)) & m, nil
		}

	case "==", "!=", "<", ">", "<=", ">=", "===", "!==":
		w := s.widthOf(v.X, sc)
		if yw := s.widthOf(v.Y, sc); yw > w {
			w = yw
		}
		x, err := s.eval(v.X, sc, w)
		if err != nil {
			return 0, err
		}
		y, err := s.eval(v.Y, sc, w)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "==", "===":
			return b2u(x == y), nil
		case "!=", "!==":
			return b2u(x != y), nil
		case "<":
			return b2u(x < y), nil
		case ">":
			return b2u(x > y), nil
		case "<=":
			return b2u(x <= y), nil
		default:
			return b2u(x >= y), nil
		}

	case "&&", "||":
		x, err := s.evalSelf(v.X, sc)
		if err != nil {
			return 0, err
		}
		y, err := s.evalSelf(v.Y, sc)
		if err != nil {
			return 0, err
		}
		if v.Op == "&&" {
			return b2u(x != 0 && y != 0), nil
		}
		return b2u(x != 0 || y != 0), nil

	case "<<", "<<<":
		x, err := s.eval(v.X, sc, ctxW)
		if err != nil {
			return 0, err
		}
		n, err := s.evalSelf(v.Y, sc)
		if err != nil {
			return 0, err
		}
		if n >= 64 {
			return 0, nil
		}
		return (x << uint(n)) & m, nil

	case ">>", ">>>":
		// Logical shift; operand masked to its own width first so stray
		// high bits never leak in.
		w := s.widthOf(v.X, sc)
		if ctxW > w {
			w = ctxW
		}
		x, err := s.eval(v.X, sc, w)
		if err != nil {
			return 0, err
		}
		n, err := s.evalSelf(v.Y, sc)
		if err != nil {
			return 0, err
		}
		if n >= 64 {
			return 0, nil
		}
		return (x >> uint(n)) & m, nil
	}
	return 0, fmt.Errorf("sim: unsupported binary operator %q", v.Op)
}

func reduce(op string, x uint64, w int) uint64 {
	x &= verilog.Mask(w)
	var and, or, xor uint64
	and = 1
	for i := 0; i < w; i++ {
		b := (x >> uint(i)) & 1
		and &= b
		or |= b
		xor ^= b
	}
	switch op {
	case "&":
		return and
	case "|":
		return or
	case "^":
		return xor
	case "~&":
		return and ^ 1
	case "~|":
		return or ^ 1
	case "~^":
		return xor ^ 1
	}
	return 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
