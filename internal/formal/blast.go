package formal

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"uvllm/internal/obs"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// ErrUnsupported marks designs (or constructs) outside the bit-blastable
// subset. Callers treat it as "no formal verdict", not as a failure: the
// simulation oracles still cover these designs.
var ErrUnsupported = errors.New("formal: design not supported by the bit-blaster")

// unsupportedf wraps ErrUnsupported with a reason.
func unsupportedf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrUnsupported}, args...)...)
}

// DefaultMaxMemBits bounds the total memory state a model may blast
// (every word of every memory becomes per-bit state); larger designs
// return ErrUnsupported.
const DefaultMaxMemBits = 4096

// Options bound what the bit-blaster will attempt.
type Options struct {
	// Clock overrides the conventional clock-name guess (sim.FindClock);
	// equivalence callers pass the clock they drive the harness with.
	Clock string
	// MaxConflicts bounds each SAT solve (0 = unlimited); exceeding it
	// aborts the check with ErrBudget. The differential oracles use it to
	// skip deterministically the rare miters (deep multiplier/divider
	// cones) whose UNSAT proofs are out of a test budget's reach.
	MaxConflicts int
	// freeReset, when set, leaves the conventional reset input free (a
	// per-cycle variable) instead of freezing it at its deasserted value.
	// Sequential processes that trigger on a reset edge are then recorded
	// as async procs: under the harness protocol the reset only changes at
	// input-apply time, so the cycle-circuit replay (NewCircuit) fires them
	// symbolically at the clock-low settle, guarded by the old-versus-new
	// edge condition — exact async-reset semantics at every observation
	// instant. The cycle-circuit consumers use freeReset so every non-clock
	// input — the sim.Batch row layout — is a driven variable.
	freeReset bool
	// literalClock, when set, takes Clock exactly as given — "" then means
	// "no clock", suppressing the conventional-name guess. This mirrors
	// the harness contract, where an empty clock name selects the
	// combinational protocol even when the design has a clk input.
	literalClock bool
	// MinimizeCex shrinks SAT counterexamples before returning them:
	// re-solve under assumptions freezing the already-satisfying suffix
	// and greedily zeroing input bits, so the directed sequences replayed
	// on the simulators are near-minimal in weight. The unminimized trace
	// is preserved in EquivResult.RawCex.
	MinimizeCex bool
	// Ctx, when non-nil, is checked between unrolling depths and polled
	// by the solver: once it is cancelled the check stops with
	// ErrCancelled at the next depth boundary, or within a few hundred
	// conflicts of a solve in flight. nil means run to completion.
	Ctx context.Context
	// Span, when non-nil, is the parent trace span of this check; each
	// solved depth records a child span ("bmc_depth", "induct_base",
	// "induct_step") carrying the depth and solver-call stats. nil (the
	// default) traces nothing and costs one nil check per depth.
	Span *obs.Span
}

// cancelled returns the cancellation error to surface at depth t, or
// nil to keep going.
func (o Options) cancelled(t int) error {
	if o.Ctx == nil || o.Ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: depth %d: %v", ErrCancelled, t, o.Ctx.Err())
}

// solver returns an empty incremental solver under the check's conflict
// budget, stopped early once Ctx is cancelled.
func (o Options) solver() *Solver {
	s := NewSolver(0)
	s.MaxConflicts = o.MaxConflicts
	if ctx := o.Ctx; ctx != nil {
		s.stop = func() bool { return ctx.Err() != nil }
	}
	return s
}

// ErrCancelled marks a check abandoned because Options.Ctx was
// cancelled: the verdict is unknown, exactly as with ErrBudget.
var ErrCancelled = errors.New("formal: check cancelled")

// ErrBudget marks a check abandoned on its MaxConflicts budget: the
// verdict is unknown, not UNSAT.
var ErrBudget = errors.New("formal: solver conflict budget exhausted")

// Model is the bit-blasted form of one compiled design: a symbolic
// transition function over an AIG, mirroring the simulator's cycle
// protocol phase by phase (inputs applied at clock low, a levelized sweep
// per phase, posedge processes, NBA commit, negedge processes, NBA
// commit). The clock is modeled by the phase structure; the reset input,
// when present, is frozen at its deasserted value — the protocol runs the
// concrete reset preamble first and explores only post-reset behavior.
type Model struct {
	g    *AIG
	prog *sim.Program
	d    *sim.Design

	clock    string
	clockIdx int // -1 when combinational
	frozen   map[int]uint64
	free     []sim.PortInfo // inputs driven with fresh variables per cycle
	outs     []sim.PortInfo
	outIdx   []int

	combOrder []int
	posedge   []int
	negedge   []int
	procs     []sim.ProcView
	sigs      []sim.SignalView

	// Async-reset bookkeeping (freeReset only): the conventional reset's
	// arena index and the sequential processes with an edge trigger on it,
	// fired symbolically at the settle instant by the cycle-circuit replay.
	rstIdx int
	asyncs []asyncProc
}

// asyncProc is one sequential process with an edge trigger on the free
// reset: proc index plus the trigger polarity (true = posedge).
type asyncProc struct {
	proc int
	pos  bool
}

// State is one symbolic snapshot of the signal arena (and memories): the
// full mutable state of a simulator instance, as vectors of AIG literals.
type State struct {
	vals []Vec
	mems [][]Vec
}

// clone deep-copies the vectors' slices (literals are immutable).
func (st *State) clone() *State {
	n := &State{vals: make([]Vec, len(st.vals)), mems: make([][]Vec, len(st.mems))}
	for i, v := range st.vals {
		n.vals[i] = append(Vec(nil), v...)
	}
	for i, m := range st.mems {
		if m != nil {
			n.mems[i] = append([]Vec(nil), m...)
		}
	}
	return n
}

// NewModelOpts bit-blasts a compiled program, sharing no AIG with other
// models. Use newModelShared for miters.
func NewModelOpts(prog *sim.Program, opts Options) (*Model, error) {
	return newModelShared(NewAIG(), prog, opts)
}

// newModelShared builds a model whose circuits live in the given AIG, so
// two models over the same graph can share input variables and structure.
func newModelShared(g *AIG, prog *sim.Program, opts Options) (*Model, error) {
	if prog.Backend() != sim.BackendCompiled {
		return nil, unsupportedf("requires the compiled backend")
	}
	if !prog.Levelized() {
		return nil, unsupportedf("not cleanly levelizable: %s", prog.FallbackReason())
	}
	d := prog.Design()
	clock := opts.Clock
	if clock == "" && !opts.literalClock {
		clock = sim.FindClock(d)
	}
	m := &Model{
		g:         g,
		prog:      prog,
		d:         d,
		clock:     clock,
		clockIdx:  -1,
		frozen:    map[int]uint64{},
		outs:      d.Outputs(),
		combOrder: prog.CombOrder(),
		rstIdx:    -1,
	}
	if m.clock != "" {
		if idx, ok := d.SignalIndex(m.clock); ok {
			m.clockIdx = idx
		}
	}
	for i := 0; i < d.NumSignals(); i++ {
		m.sigs = append(m.sigs, d.Signal(i))
	}
	for i := 0; i < d.NumProcs(); i++ {
		m.procs = append(m.procs, d.Proc(i))
	}

	// The conventional reset: frozen at its deasserted value by default
	// (the protocol runs the concrete preamble and explores post-reset
	// behavior), a tracked free input under freeReset.
	if rst, v := sim.FindResetDeassert(d); rst != "" {
		if idx, ok := d.SignalIndex(rst); ok {
			if opts.freeReset {
				m.rstIdx = idx
			} else {
				m.frozen[idx] = v
			}
		}
	}
	for _, p := range d.Inputs() {
		idx, ok := d.SignalIndex(p.Name)
		if !ok {
			continue
		}
		if idx == m.clockIdx {
			continue
		}
		if _, fr := m.frozen[idx]; fr {
			continue
		}
		m.free = append(m.free, p)
	}
	for _, p := range m.outs {
		idx, _ := d.SignalIndex(p.Name)
		m.outIdx = append(m.outIdx, idx)
	}

	// Sequential triggers must be the clock or a frozen input: anything
	// else (derived clocks, data inputs) needs mid-settle edge semantics
	// the phase model does not reproduce.
	memBits := 0
	for _, sv := range m.sigs {
		if sv.IsMem {
			memBits += sv.Width * sv.Depth
		}
	}
	if memBits > DefaultMaxMemBits {
		return nil, unsupportedf("memories total %d bits (cap %d)", memBits, DefaultMaxMemBits)
	}
	for pi, pv := range m.procs {
		if pv.Kind != sim.ProcSeq {
			continue
		}
		for _, ed := range pv.Edges {
			if ed.Sig == m.clockIdx {
				continue
			}
			if _, fr := m.frozen[ed.Sig]; fr {
				continue // frozen signals never toggle: the edge cannot fire
			}
			if ed.Sig == m.rstIdx {
				// Free reset: the edge can only fire at input-apply time, so
				// the cycle-circuit replay reproduces it exactly with a
				// guarded firing at the settle instant.
				m.asyncs = append(m.asyncs, asyncProc{proc: pi, pos: ed.Pos})
				continue
			}
			return nil, unsupportedf("edge trigger on %s (only the clock and the reset are modeled)",
				m.sigs[ed.Sig].Name)
		}
	}
	if m.clockIdx >= 0 {
		m.posedge = d.EdgeProcsOf(m.clockIdx, true)
		m.negedge = d.EdgeProcsOf(m.clockIdx, false)
	} else {
		// No recognizable clock: sequential processes would never fire in
		// the harness protocol either, but a design that has them is
		// almost certainly mis-modeled — refuse.
		for _, pv := range m.procs {
			if pv.Kind == sim.ProcSeq {
				return nil, unsupportedf("sequential process but no conventional clock input")
			}
		}
	}
	return m, nil
}

// AIG returns the model's underlying graph.
func (m *Model) AIG() *AIG { return m.g }

// Clock returns the modeled clock input name ("" for combinational).
func (m *Model) Clock() string { return m.clock }

// FreeInputs returns the input ports driven with fresh variables each
// cycle (the clock and the frozen reset excluded).
func (m *Model) FreeInputs() []sim.PortInfo { return m.free }

// FrozenInputs returns the inputs held constant by the protocol and
// their values (the deasserted reset).
func (m *Model) FrozenInputs() map[string]uint64 {
	out := map[string]uint64{}
	for idx, v := range m.frozen {
		out[m.sigs[idx].Name] = v
	}
	return out
}

// Outputs returns the design's output ports.
func (m *Model) Outputs() []sim.PortInfo { return m.outs }

// InitState runs a concrete instance through the differential reset
// protocol (ApplyReset(sim.ResetCycles), inputs at zero) and captures the
// settled arena as constant vectors — the shared, concrete starting point
// of every bounded unrolling and of its replay on a simulator.
func (m *Model) InitState() (*State, error) {
	inst, err := m.prog.NewInstance()
	if err != nil {
		return nil, fmt.Errorf("formal: init state: %w", err)
	}
	h := sim.NewHarness(inst, m.clock)
	if err := h.ApplyReset(sim.ResetCycles); err != nil {
		return nil, fmt.Errorf("formal: init state: %w", err)
	}
	st := &State{vals: make([]Vec, len(m.sigs)), mems: make([][]Vec, len(m.sigs))}
	for i, sv := range m.sigs {
		w := vecW(sv.Width)
		st.vals[i] = m.g.ConstVec(inst.Get(sv.Name), w)
		if sv.IsMem {
			st.mems[i] = make([]Vec, sv.Depth)
			for d := 0; d < sv.Depth; d++ {
				st.mems[i][d] = m.g.ConstVec(inst.GetMem(sv.Name, d), w)
			}
		}
	}
	return st, nil
}

// FreshInputs allocates one cycle's worth of free input variables.
func (m *Model) FreshInputs() map[string]Vec {
	in := map[string]Vec{}
	for _, p := range m.free {
		in[p.Name] = m.g.VarVec(vecW(p.Width))
	}
	return in
}

// FreeState allocates a fully symbolic state: every signal and every
// memory word a fresh variable vector. This over-approximates the
// reachable state set — the starting point of a k-induction step window,
// whose combinational signals settle to consistent values after the
// first Step. Only the post-Step states of a free-state window may be
// observed or constrained; the free snapshot itself contains arbitrary
// (possibly inconsistent) combinational values.
func (m *Model) FreeState() *State {
	st := &State{vals: make([]Vec, len(m.sigs)), mems: make([][]Vec, len(m.sigs))}
	for i, sv := range m.sigs {
		w := vecW(sv.Width)
		st.vals[i] = m.g.VarVec(w)
		if sv.IsMem {
			st.mems[i] = make([]Vec, sv.Depth)
			for d := 0; d < sv.Depth; d++ {
				st.mems[i][d] = m.g.VarVec(w)
			}
		}
	}
	return st
}

// StateSignals returns the arena indices of the model's sequential state:
// every l-value of a sequential (clocked or async-reset) process plus
// every memory, sorted. These are the registers that carry information
// across cycles — the signals whose equality defines "same state" for
// k-induction's loop-free path constraints (combinational signals are
// functions of registers and inputs, so distinctness over registers
// suffices).
func (m *Model) StateSignals() []int {
	set := map[int]bool{}
	for _, pv := range m.procs {
		if pv.Kind != sim.ProcSeq {
			continue
		}
		for _, i := range pv.Writes() {
			set[i] = true
		}
	}
	for i, sv := range m.sigs {
		if sv.IsMem {
			set[i] = true
		}
	}
	idxs := make([]int, 0, len(set))
	for i := range set {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// OutputVec reads an output port's symbolic value from a state.
func (m *Model) OutputVec(st *State, i int) Vec { return st.vals[m.outIdx[i]] }

// OutputVecByName reads an output *port* by name. It matches only the
// port list — the set a harness scoreboard observes — so a same-named
// internal signal can never stand in for a missing output in an
// equivalence miter.
func (m *Model) OutputVecByName(st *State, name string) (Vec, bool) {
	for i, p := range m.outs {
		if p.Name == name {
			return st.vals[m.outIdx[i]], true
		}
	}
	return nil, false
}

// Step advances the symbolic state by one harness cycle under the given
// stimulus (missing free inputs hold their previous value, mirroring a
// stimulus map without the key). It returns the post-cycle state — the
// instant the harness samples its waveform row.
func (m *Model) Step(st *State, in map[string]Vec) (*State, error) {
	e := &sexec{m: m, st: st.clone()}

	// Input application (clock low in the harness protocol).
	for _, p := range m.free {
		v, ok := in[p.Name]
		if !ok {
			continue
		}
		idx, _ := m.d.SignalIndex(p.Name)
		e.st.vals[idx] = m.g.Resize(v, vecW(p.Width))
	}
	for idx, v := range m.frozen {
		e.st.vals[idx] = m.g.ConstVec(v, vecW(m.sigs[idx].Width))
	}

	if m.clockIdx < 0 {
		e.sweep()
		return e.st, e.err
	}

	// Phase 1: clock low, combinational settle.
	e.setClock(0)
	e.sweep()
	e.clockEdges()
	return e.st, e.err
}

// vecW caps vector widths at the simulator's 64-bit arithmetic.
func vecW(w int) int {
	if w > 64 {
		return 64
	}
	return w
}

// --- symbolic executor -------------------------------------------------

// snba is one deferred (non-blocking) write: commit applies
// old &^ mask | val & mask per bit; memory writes carry the symbolic
// address. Conditional writes fold the branch guard into the mask, which
// makes an unexecuted write a no-op exactly like the event queue's
// absent entry.
type snba struct {
	sig   int
	isMem bool
	addr  Vec // nil for scalar targets
	mask  Vec
	val   Vec
}

type sexec struct {
	m   *Model
	st  *State
	nba []snba
	err error
}

func (e *sexec) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// clockEdges replays the clocked half of a harness cycle from the settled
// clock-low state. Clock high: the comb readers of the clock first, then
// the posedge batch (no comb updates inside the batch, matching the event
// queue), then the NBA commit, then a resettle. Clock low again: the
// negedge batch under the new state, its commit and a resettle.
func (e *sexec) clockEdges() {
	m := e.m
	e.setClock(1)
	e.sweep()
	for _, pi := range m.posedge {
		e.runProc(m.procs[pi])
	}
	e.commitNBA()
	e.sweep()
	e.setClock(0)
	e.sweep()
	for _, pi := range m.negedge {
		e.runProc(m.procs[pi])
	}
	e.commitNBA()
	e.sweep()
}

func (e *sexec) g() *AIG { return e.m.g }

func (e *sexec) setClock(v uint64) {
	e.st.vals[e.m.clockIdx] = e.g().ConstVec(v, vecW(e.m.sigs[e.m.clockIdx].Width))
}

// sweep evaluates every combinational process once in the levelized
// topological order — the compiled backend's straight-line pass, which
// reaches the unique fixpoint of a clean design in one traversal.
func (e *sexec) sweep() {
	for _, pi := range e.m.combOrder {
		if e.err != nil {
			return
		}
		e.runProc(e.m.procs[pi])
	}
}

// runProc executes one process body (or connection assignment) under no
// guard.
func (e *sexec) runProc(p sim.ProcView) {
	if e.err != nil {
		return
	}
	if p.ConnRHS != nil {
		w := e.widthOfLHS(p.ConnLHS, p.ConnLHSScope)
		if rw := e.widthOf(p.ConnRHS, p.ConnRHSScope); rw > w {
			w = rw
		}
		v := e.eval(p.ConnRHS, p.ConnRHSScope, w)
		e.writeLHS(p.ConnLHS, p.ConnLHSScope, v, true, True)
		return
	}
	e.execStmt(p.Scope, p.Body, True)
}

// commitNBA applies the deferred writes in append order.
func (e *sexec) commitNBA() {
	g := e.g()
	for _, w := range e.nba {
		if w.isMem {
			words := e.st.mems[w.sig]
			width := len(w.mask)
			reach := wordsReachable(len(w.addr), len(words))
			for wi := 0; wi < reach; wi++ {
				hit := g.EqConst(w.addr, uint64(wi))
				if hit == False {
					continue
				}
				old := words[wi]
				nw := make(Vec, width)
				for b := 0; b < width; b++ {
					nw[b] = g.Mux(g.And(hit, w.mask[b]), w.val[b], old[b])
				}
				words[wi] = nw
			}
			continue
		}
		old := e.st.vals[w.sig]
		nw := make(Vec, len(old))
		for b := range old {
			nw[b] = g.Mux(w.mask[b], w.val[b], old[b])
		}
		e.st.vals[w.sig] = nw
	}
	e.nba = e.nba[:0]
}

// wordsReachable bounds the mux chain over a memory to the words a
// sel-width address can express.
func wordsReachable(selBits, depth int) int {
	if selBits >= 31 {
		return depth
	}
	if max := 1 << uint(selBits); max < depth {
		return max
	}
	return depth
}

// execStmt interprets one statement symbolically. guard is the
// path condition: writes outside the taken path must leave state intact,
// which the write helpers implement by muxing against the old value.
func (e *sexec) execStmt(sc sim.ScopeView, st verilog.Stmt, guard Lit) {
	if e.err != nil || guard == False {
		return
	}
	g := e.g()
	switch v := st.(type) {
	case nil, *verilog.NullStmt:
		return
	case *verilog.Block:
		for _, sub := range v.Stmts {
			e.execStmt(sc, sub, guard)
		}
	case *verilog.Assign:
		e.execAssign(sc, v, guard)
	case *verilog.If:
		c := g.RedOr(e.evalSelf(v.Cond, sc))
		e.execStmt(sc, v.Then, g.And(guard, c))
		if v.Else != nil {
			e.execStmt(sc, v.Else, g.And(guard, c.Not()))
		}
	case *verilog.Case:
		sel := e.evalSelf(v.Expr, sc)
		taken := False // some earlier arm matched
		var def verilog.Stmt
		for i := range v.Items {
			it := &v.Items[i]
			if it.Exprs == nil {
				def = it.Body
				continue
			}
			match := False
			for _, ex := range it.Exprs {
				lv := e.evalSelf(ex, sc)
				w := len(sel)
				if len(lv) > w {
					w = len(lv)
				}
				match = g.Or(match, g.EqVec(g.Resize(lv, w), g.Resize(sel, w)))
			}
			armGuard := g.And(match, taken.Not())
			e.execStmt(sc, it.Body, g.And(guard, armGuard))
			taken = g.Or(taken, match)
		}
		if def != nil {
			e.execStmt(sc, def, g.And(guard, taken.Not()))
		}
	case *verilog.For:
		// Loop control must be concrete (constant-foldable): the loop
		// variable is driven by the init/step assignments, which the AIG's
		// constant propagation keeps constant vectors.
		if guard != True {
			e.fail(unsupportedf("for loop under a symbolic branch (line %d)", v.Line))
			return
		}
		if v.Init != nil {
			e.execAssign(sc, v.Init, True)
		}
		for iter := 0; ; iter++ {
			if e.err != nil {
				return
			}
			if iter > 1<<16 {
				e.fail(fmt.Errorf("formal: for loop at line %d exceeded %d iterations", v.Line, 1<<16))
				return
			}
			cv, ok := g.ConstVal(e.evalSelf(v.Cond, sc))
			if !ok {
				e.fail(unsupportedf("for loop with symbolic condition (line %d)", v.Line))
				return
			}
			if cv == 0 {
				return
			}
			e.execStmt(sc, v.Body, True)
			if v.Step != nil {
				e.execAssign(sc, v.Step, True)
			}
		}
	default:
		e.fail(unsupportedf("statement %T", st))
	}
}

func (e *sexec) execAssign(sc sim.ScopeView, a *verilog.Assign, guard Lit) {
	if a == nil {
		return
	}
	w := e.widthOfLHS(a.LHS, sc)
	if rw := e.widthOf(a.RHS, sc); rw > w {
		w = rw
	}
	v := e.eval(a.RHS, sc, w)
	e.writeLHS(a.LHS, sc, v, a.Blocking, guard)
}

// writeLHS stores v into the l-value under the guard: blocking writes
// update the arena immediately (muxed against the old value), non-blocking
// writes append a deferred entry with the guard folded into its mask.
func (e *sexec) writeLHS(lhs verilog.Expr, sc sim.ScopeView, v Vec, blocking bool, guard Lit) {
	if e.err != nil {
		return
	}
	g := e.g()
	switch l := lhs.(type) {
	case *verilog.Ident:
		idx, ok := sc.Lookup(l.Name)
		if !ok {
			e.fail(fmt.Errorf("formal: assignment to undeclared %q (line %d)", l.Name, l.Line))
			return
		}
		w := vecW(e.m.sigs[idx].Width)
		nv := g.Resize(v, w)
		if blocking {
			e.st.vals[idx] = g.MuxVec(guard, nv, e.st.vals[idx])
		} else {
			e.nba = append(e.nba, snba{sig: idx, mask: guardMask(g, guard, w), val: nv})
		}

	case *verilog.Index:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			e.fail(unsupportedf("nested l-value at line %d", l.Line))
			return
		}
		idx, ok := sc.Lookup(id.Name)
		if !ok {
			e.fail(fmt.Errorf("formal: assignment to undeclared %q (line %d)", id.Name, id.Line))
			return
		}
		sel := e.evalSelf(l.Index, sc)
		si := e.m.sigs[idx]
		if si.IsMem {
			w := vecW(si.Width)
			nv := g.Resize(v, w)
			if blocking {
				words := e.st.mems[idx]
				reach := wordsReachable(len(sel), len(words))
				for wi := 0; wi < reach; wi++ {
					hit := g.And(guard, g.EqConst(sel, uint64(wi)))
					if hit == False {
						continue
					}
					words[wi] = g.MuxVec(hit, nv, words[wi])
				}
			} else {
				e.nba = append(e.nba, snba{sig: idx, isMem: true, addr: sel, mask: guardMask(g, guard, w), val: nv})
			}
			return
		}
		// Bit write: mask bit i = (sel == i) & guard; out-of-range indexes
		// write nothing (the simulator ignores them).
		w := vecW(si.Width)
		mask := make(Vec, w)
		val := make(Vec, w)
		bit := False
		if len(v) > 0 {
			bit = v[0]
		}
		reach := wordsReachable(len(sel), w)
		for i := 0; i < w; i++ {
			if i < reach {
				mask[i] = g.And(guard, g.EqConst(sel, uint64(i)))
			} else {
				mask[i] = False
			}
			val[i] = bit
		}
		if blocking {
			old := e.st.vals[idx]
			nw := make(Vec, w)
			for i := 0; i < w; i++ {
				nw[i] = g.Mux(mask[i], val[i], old[i])
			}
			e.st.vals[idx] = nw
		} else {
			e.nba = append(e.nba, snba{sig: idx, mask: mask, val: val})
		}

	case *verilog.PartSelect:
		id, ok := l.X.(*verilog.Ident)
		if !ok {
			e.fail(unsupportedf("nested l-value at line %d", l.Line))
			return
		}
		idx, ok := sc.Lookup(id.Name)
		if !ok {
			e.fail(fmt.Errorf("formal: assignment to undeclared %q (line %d)", id.Name, id.Line))
			return
		}
		msb, lsb, ok := e.constRange(l.MSB, l.LSB, sc)
		if !ok {
			e.fail(unsupportedf("non-constant part-select bounds (line %d)", l.Line))
			return
		}
		w := vecW(e.m.sigs[idx].Width)
		sw := int(msb-lsb) + 1
		nv := g.Resize(v, sw)
		if blocking {
			old := e.st.vals[idx]
			nw := append(Vec(nil), old...)
			for i := 0; i < sw; i++ {
				if bi := int(lsb) + i; bi < w {
					nw[bi] = g.Mux(guard, nv[i], old[bi])
				}
			}
			e.st.vals[idx] = nw
		} else {
			mask := g.ConstVec(0, w)
			val := g.ConstVec(0, w)
			for i := 0; i < sw; i++ {
				if bi := int(lsb) + i; bi < w {
					mask[bi] = guard
					val[bi] = nv[i]
				}
			}
			e.nba = append(e.nba, snba{sig: idx, mask: mask, val: val})
		}

	case *verilog.Concat:
		total := 0
		widths := make([]int, len(l.Parts))
		for i, part := range l.Parts {
			widths[i] = e.widthOfLHS(part, sc)
			total += widths[i]
		}
		vv := e.g().Resize(v, vecW(total))
		shift := total
		for i, part := range l.Parts {
			shift -= widths[i]
			pw := vecW(widths[i])
			pv := make(Vec, pw)
			for b := 0; b < pw; b++ {
				if shift+b < len(vv) {
					pv[b] = vv[shift+b]
				} else {
					pv[b] = False
				}
			}
			e.writeLHS(part, sc, pv, blocking, guard)
		}

	default:
		e.fail(unsupportedf("l-value %T", lhs))
	}
}

// guardMask is a width-w mask vector of the guard literal.
func guardMask(g *AIG, guard Lit, w int) Vec {
	out := make(Vec, w)
	for i := range out {
		out[i] = guard
	}
	return out
}

// constRange evaluates constant part-select bounds, normalized msb >= lsb.
func (e *sexec) constRange(msbE, lsbE verilog.Expr, sc sim.ScopeView) (msb, lsb int64, ok bool) {
	bs := blastScope{e.m, sc}
	m, ok1 := bs.Const(msbE)
	l, ok2 := bs.Const(lsbE)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if m < l {
		m, l = l, m
	}
	return m, l, true
}
