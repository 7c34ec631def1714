package formal

// Cycle-circuit export. The bounded model checker consumes the blasted
// transition function incrementally (Model.Step, one symbolic state at a
// time); the bit-parallel lane simulator (internal/psim) instead wants the
// whole single-cycle circuit at once — prev-state variables in, post-cycle
// roots out — so it can compile the AIG into a straight-line word evaluator
// and sweep it once per cycle for 64 lanes. Circuit is that export: one
// harness cycle (input apply, clock-low settle, posedge batch, NBA commit,
// negedge batch, final settle) blasted with named variable roots for every
// arena signal, every memory word and every non-clock input, plus the
// mid-cycle "settle" roots that reproduce the harness's reset-deassert
// Settle() instant.

import (
	"uvllm/internal/sim"
)

// Circuit is the transition function of one compiled design for exactly one
// harness cycle, exported as an AIG with named variable roots. All fields
// are read-only after construction.
type Circuit struct {
	// G is the and-inverter graph the circuit's functions live in. With
	// NewCircuitShared it may hold several circuits.
	G *AIG
	// Prog is the compiled program the circuit was blasted from.
	Prog *sim.Program
	// Clock is the modeled clock input name ("" for the combinational
	// protocol). It is taken literally, never guessed.
	Clock string
	// Free lists the circuit's input ports — every non-clock design input
	// in declaration order, exactly the sim.Batch row layout.
	Free []sim.PortInfo
	// FreeIdx holds each free input's arena signal index, aligned with Free.
	FreeIdx []int
	// In holds each free input's per-cycle variable vector, aligned with
	// Free. With NewCircuitShared these may be shared across circuits.
	In []Vec
	// Sigs is the design's full signal table in arena order.
	Sigs []sim.SignalView
	// State holds one previous-state variable vector per signal, in arena
	// order (memories additionally get per-word vectors in StateMem).
	State []Vec
	// StateMem holds the previous-state variable vectors of each memory
	// word, nil for non-memory signals.
	StateMem [][]Vec
	// Next holds each signal's post-cycle function — its value at the
	// instant the harness records its waveform row (clock reads 0).
	Next []Vec
	// NextMem holds each memory word's post-cycle function.
	NextMem [][]Vec
	// Settle holds each signal's value after input application and the
	// clock-low combinational settle only — the harness's Settle() instant,
	// which is the state ApplyReset leaves after deasserting the reset.
	Settle []Vec
	// SettleMem holds each memory word's value at the settle instant.
	SettleMem [][]Vec
}

// NewCircuit blasts prog's single-cycle transition function with fresh
// input variables. The clock name is taken literally ("" = combinational
// protocol) and every non-clock input is free, the reset included, so
// designs that need the frozen-reset protocol (async-reset edge triggers)
// return ErrUnsupported.
func NewCircuit(prog *sim.Program, clock string, opts Options) (*Circuit, error) {
	return NewCircuitShared(NewAIG(), nil, prog, clock, opts)
}

// NewCircuitShared blasts prog into an existing graph, taking input
// variables from in by port name (missing entries get fresh variables).
// Circuits sharing a graph and input variables strash-share their common
// structure — the mechanism faultgen's bit-parallel classifier uses to
// evaluate one golden and many mutants of it in a single sweep.
func NewCircuitShared(g *AIG, in map[string]Vec, prog *sim.Program, clock string, opts Options) (*Circuit, error) {
	opts.freeReset = true
	opts.literalClock = true
	opts.Clock = clock
	m, err := newModelShared(g, prog, opts)
	if err != nil {
		return nil, err
	}
	if m.clock != "" && m.clockIdx < 0 {
		// The harness would fail every cycle with "unknown signal"; there is
		// no circuit to build for that.
		return nil, unsupportedf("clock %q is not a design signal", m.clock)
	}
	d := prog.Design()
	c := &Circuit{G: g, Prog: prog, Clock: m.clock, Sigs: m.sigs}

	// Previous-state variables for the whole arena (dead ones — comb
	// signals recomputed before any read — simply go unused in the graph).
	st := &State{vals: make([]Vec, len(m.sigs)), mems: make([][]Vec, len(m.sigs))}
	c.State = make([]Vec, len(m.sigs))
	c.StateMem = make([][]Vec, len(m.sigs))
	for i, sv := range m.sigs {
		w := vecW(sv.Width)
		c.State[i] = g.VarVec(w)
		st.vals[i] = c.State[i]
		if sv.IsMem {
			c.StateMem[i] = make([]Vec, sv.Depth)
			st.mems[i] = make([]Vec, sv.Depth)
			for dw := 0; dw < sv.Depth; dw++ {
				c.StateMem[i][dw] = g.VarVec(w)
				st.mems[i][dw] = c.StateMem[i][dw]
			}
		}
	}

	// Input variables, shared by name when provided.
	for _, p := range m.free {
		idx, _ := d.SignalIndex(p.Name)
		c.Free = append(c.Free, p)
		c.FreeIdx = append(c.FreeIdx, idx)
		v := in[p.Name]
		if v == nil {
			v = g.VarVec(vecW(p.Width))
		}
		c.In = append(c.In, v)
	}

	// Replay one harness cycle symbolically — the exact phase schedule of
	// Model.Step — capturing the settle instant on the way.
	e := &sexec{m: m, st: st.clone()}
	for i, p := range m.free {
		e.st.vals[c.FreeIdx[i]] = g.Resize(c.In[i], vecW(p.Width))
	}
	if m.clockIdx < 0 {
		e.sweep()
		if e.err != nil {
			return nil, e.err
		}
		c.Settle, c.SettleMem = e.st.vals, e.st.mems
		c.Next, c.NextMem = e.st.vals, e.st.mems
		return c, nil
	}
	e.setClock(0)
	e.sweep()
	// Async-reset edge firing: the harness's first Settle() runs the comb
	// sweep, then the sequential processes whose reset-edge trigger fired
	// at input application, then commits their non-blocking writes and
	// resettles. The reset only changes at input-apply time under the
	// harness protocol, so a guarded firing here — guard = the old-versus-
	// new edge condition on the reset bit — is exact, per lane.
	if len(m.asyncs) > 0 {
		oldR := c.State[m.rstIdx][0]
		newR := e.st.vals[m.rstIdx][0]
		for _, ap := range m.asyncs {
			fired := g.And(oldR, newR.Not())
			if ap.pos {
				fired = g.And(oldR.Not(), newR)
			}
			pv := m.procs[ap.proc]
			e.execStmt(pv.Scope, pv.Body, fired)
		}
		e.commitNBA()
		e.sweep()
	}
	mid := e.st.clone()
	e.clockEdges()
	if e.err != nil {
		return nil, e.err
	}
	c.Settle, c.SettleMem = mid.vals, mid.mems
	c.Next, c.NextMem = e.st.vals, e.st.mems
	return c, nil
}
