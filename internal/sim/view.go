package sim

import "uvllm/internal/verilog"

// This file is the read-only "elaborated netlist view" of a Design: the
// exported window through which the formal engine (internal/formal) walks
// the same signal table, process list and per-instance scopes the two
// simulation backends execute. The view deliberately exposes the elaborated
// form — after parameter evaluation, hierarchy flattening and port-
// connection synthesis — so a consumer that mirrors the simulator's
// scheduling semantics over it (phase by phase, process by process) is
// bit-blasting exactly the design the simulator runs, not a re-derivation
// of it.

// ProcKind classifies an elaborated process for view consumers.
type ProcKind int

// Process kinds, mirroring the scheduler's classification.
const (
	// ProcComb is a continuous assignment, synthesized port connection or
	// level-sensitive always block.
	ProcComb ProcKind = iota
	// ProcSeq is an edge-triggered always block.
	ProcSeq
	// ProcInit is an initial block (runs once at instance creation).
	ProcInit
)

// String implements fmt.Stringer.
func (k ProcKind) String() string {
	switch k {
	case ProcComb:
		return "comb"
	case ProcSeq:
		return "seq"
	case ProcInit:
		return "initial"
	}
	return "proc?"
}

// SignalView describes one elaborated signal (net, variable or memory).
type SignalView struct {
	Index int    // position in the signal arena
	Name  string // hierarchical name, e.g. "u1.sum"
	Width int    // vector width in bits (word width for memories)
	IsMem bool   // true for memories (reg [..] m [0:D-1])
	Depth int    // word count for memories, 0 otherwise
}

// EdgeView is one edge-trigger of a sequential process.
type EdgeView struct {
	Sig int  // arena index of the trigger signal
	Pos bool // true for posedge, false for negedge
}

// ScopeView resolves identifiers of one module instance to arena indices
// and parameter values, exactly as the interpreter and compiler do.
type ScopeView struct {
	sc *scope
}

// Lookup resolves a signal name in this scope to its arena index.
func (v ScopeView) Lookup(name string) (int, bool) {
	if v.sc == nil {
		return 0, false
	}
	idx, ok := v.sc.names[name]
	return idx, ok
}

// Param resolves a parameter name in this scope to its elaborated value.
func (v ScopeView) Param(name string) (int64, bool) {
	if v.sc == nil {
		return 0, false
	}
	val, ok := v.sc.env[name]
	return val, ok
}

// Params returns the scope's parameter environment for constant
// evaluation (verilog.EvalConst). The returned map is shared with the
// simulator and must not be modified.
func (v ScopeView) Params() verilog.ConstEnv {
	if v.sc == nil {
		return nil
	}
	return v.sc.env
}

// ProcView describes one elaborated process. Exactly one of Body or
// ConnRHS is non-nil: always/initial bodies carry Body (resolved through
// Scope), synthesized connection assignments carry ConnLHS/ConnRHS with
// their own scopes (a port connection straddles two instances).
type ProcView struct {
	Index int
	Kind  ProcKind

	Body  verilog.Stmt
	Scope ScopeView

	ConnLHS      verilog.Expr
	ConnLHSScope ScopeView
	ConnRHS      verilog.Expr
	ConnRHSScope ScopeView

	// Edges are the edge triggers of a ProcSeq process (and the explicit
	// level-sensitivity list of a non-star combinational block, with
	// Pos=false).
	Edges []EdgeView

	p *process
}

// Writes returns the arena indices of every signal the process may write
// (blocking or non-blocking, full or partial), each once.
func (v ProcView) Writes() []int { return writeSet(v.p) }

// NumSignals returns the arena size.
func (d *Design) NumSignals() int { return len(d.sigs) }

// Signal returns the view of one signal by arena index.
func (d *Design) Signal(i int) SignalView {
	s := d.sigs[i]
	return SignalView{Index: i, Name: s.name, Width: s.width, IsMem: s.isMem, Depth: s.depth}
}

// SignalIndex resolves a hierarchical signal name to its arena index.
func (d *Design) SignalIndex(name string) (int, bool) {
	idx, ok := d.byName[name]
	return idx, ok
}

// NumProcs returns the number of elaborated processes.
func (d *Design) NumProcs() int { return len(d.procs) }

// Proc returns the view of one process by index.
func (d *Design) Proc(i int) ProcView {
	p := d.procs[i]
	v := ProcView{
		p:            p,
		Index:        p.idx,
		Body:         p.body,
		Scope:        ScopeView{sc: p.sc},
		ConnLHS:      p.connLHS,
		ConnLHSScope: ScopeView{sc: p.connLHSsc},
		ConnRHS:      p.connRHS,
		ConnRHSScope: ScopeView{sc: p.connRHSsc},
	}
	switch p.kind {
	case procComb:
		v.Kind = ProcComb
	case procSeq:
		v.Kind = ProcSeq
	case procInit:
		v.Kind = ProcInit
	}
	for _, ed := range p.edges {
		v.Edges = append(v.Edges, EdgeView{Sig: ed.sig, Pos: ed.pos})
	}
	return v
}

// EdgeProcsOf returns, in trigger order, the indices of the sequential
// processes sensitive to the given edge of signal sig — the exact order
// the event scheduler enqueues them when the signal toggles, which is the
// order a cycle-accurate symbolic model must execute them in.
func (d *Design) EdgeProcsOf(sig int, pos bool) []int {
	var out []int
	for _, ew := range d.edgeOf[sig] {
		if ew.pos == pos {
			out = append(out, ew.proc)
		}
	}
	return out
}

// CombOrder returns the topological evaluation order of the combinational
// processes when the program is cleanly levelized (one pass over this
// order reaches the combinational fixpoint), or nil on the event-driven
// backend and for designs that fell back to event scheduling.
func (p *Program) CombOrder() []int {
	if p.code == nil || !p.levelized {
		return nil
	}
	return append([]int(nil), p.code.order...)
}
