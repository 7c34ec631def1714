package faultgen

// Bit-parallel fault classification. ObserveLanes answers "did the golden
// testbench's stimulus catch this mutant" one scalar lane per seed;
// ClassifyBitParallel asks the wider sampling question — does any of up
// to 64 random stimulus streams observe a divergence, and at which cycle
// — without paying 64 simulations. Golden and mutant are blasted into
// ONE and-inverter graph with shared per-cycle input variables
// (formal.NewCircuitShared), so structural hashing folds everything the
// mutation did not touch into common nodes: a single bit-parallel sweep
// (internal/psim's Machine) evaluates both designs for all lanes at
// once, and the divergence check is a word XOR over the output roots.
// The verdict is a sampled lower bound — a fault can escape random
// stimulus — which is exactly its role: a cheap concrete-witness screen
// in front of the SAT classifier's exhaustive-but-expensive bounded
// verdicts.

import (
	"math/rand"
	"sync"

	"uvllm/internal/formal"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

// BitVerdict is the bit-parallel classifier's result.
type BitVerdict struct {
	// Supported is false when the pair is outside the bit-blastable
	// subset (or does not compile); the other fields are then zero and
	// the observation/SAT classifiers own the fault.
	Supported bool
	// Detected reports whether any lane observed golden and mutant
	// diverge on an output; Lane/Cycle/Signal locate the first hit
	// (lowest lane of the earliest post-reset cycle).
	Detected bool
	Lane     int
	Cycle    int
	Signal   string
	// DetectedLanes counts lanes that observed a divergence at any
	// cycle — the fault's visibility to random stimulus, out of Lanes.
	DetectedLanes int
	Lanes         int
	// GateOps is the AND-gate count of the shared golden+mutant
	// machine; with structural sharing it sits well below the sum of
	// two standalone circuits.
	GateOps int
}

// ClassifyBitParallel classifies one benchmark fault against its golden
// module by bit-parallel random simulation: lanes (1..64) independent
// stimulus streams of the given cycle count after a reset preamble.
func ClassifyBitParallel(f *Fault, lanes, cycles int, seed int64) (BitVerdict, error) {
	m := f.Meta()
	if m == nil {
		return BitVerdict{}, nil
	}
	return ClassifyBitParallelSource(f.Golden, f.Source, m.Top, m.Clock, lanes, cycles, seed)
}

// ClassifyBitParallelSource is ClassifyBitParallel over raw sources. Both
// designs see the same stimulus: formal.ResetCycles cycles with the
// conventional reset asserted and every other input zero, then `cycles`
// cycles of per-lane random vectors (lane k draws from seed+k) with the
// reset held deasserted. The run stops early once every lane has
// diverged, since no later cycle can change the verdict. Supported=false
// with a nil error means the pair is outside the bit-parallel subset.
func ClassifyBitParallelSource(golden, mutant, top, clock string, lanes, cycles int, seed int64) (BitVerdict, error) {
	if lanes < 1 || lanes > 64 {
		lanes = 64
	}
	pg, err := sim.SharedCache().Compile(golden, top, sim.BackendCompiled)
	if err != nil {
		return BitVerdict{}, nil
	}
	pm, err := sim.SharedCache().Compile(mutant, top, sim.BackendCompiled)
	if err != nil {
		return BitVerdict{}, nil
	}
	g := formal.NewAIG()
	cg, err := formal.NewCircuitShared(g, nil, pg, clock, formal.Options{})
	if err != nil {
		return BitVerdict{}, nil
	}
	shared := map[string]formal.Vec{}
	for i, pt := range cg.Free {
		shared[pt.Name] = cg.In[i]
	}
	cm, err := formal.NewCircuitShared(g, shared, pm, clock, formal.Options{})
	if err != nil {
		return BitVerdict{}, nil
	}
	// One machine over the shared graph evaluates both circuits per sweep;
	// build it after both so it covers every node.
	eng := psim.NewMachine(g)
	sg, sm := newPairState(cg, pg), newPairState(cm, pm)
	if sg == nil || sm == nil {
		return BitVerdict{}, nil
	}

	// Output pairs compared each cycle, matched by port name (mutations
	// never change the port list; anything unmatched is simply skipped).
	type outPair struct {
		name   string
		gv, mv formal.Vec
	}
	var outs []outPair
	for _, pt := range pg.Design().Outputs() {
		gi, ok1 := pg.Design().SignalIndex(pt.Name)
		mi, ok2 := pm.Design().SignalIndex(pt.Name)
		if !ok1 || !ok2 {
			continue
		}
		outs = append(outs, outPair{pt.Name, cg.Next[gi], cm.Next[mi]})
	}

	active := ^uint64(0)
	if lanes < 64 {
		active = 1<<uint(lanes) - 1
	}
	rstName, activeLow := sim.FindReset(pg.Design())
	assert, deassert := uint64(1), uint64(0)
	if activeLow {
		assert, deassert = 0, 1
	}
	var rngs [64]*rand.Rand
	for k := range lanes {
		rngs[k] = rngPool.Get().(*rand.Rand)
		rngs[k].Seed(seed + int64(k))
	}
	defer func() {
		for _, r := range rngs[:lanes] {
			rngPool.Put(r)
		}
	}()
	resetCycles := 0
	if rstName != "" {
		resetCycles = formal.ResetCycles
	}

	v := BitVerdict{Supported: true, Lanes: lanes, GateOps: eng.Ops(), Lane: -1, Cycle: -1}
	var caught uint64
	var col, words [64]uint64 // one port's lane values, then its bit-sliced words
	for cyc := 0; cyc < resetCycles+cycles; cyc++ {
		sg.load(eng)
		sm.load(eng)
		for i, pt := range cg.Free {
			w := words[:len(cg.In[i])]
			switch {
			case pt.Name == rstName:
				// Every lane drives the same reset level: a broadcast.
				// Lanes at or above the count are never compared.
				level := deassert
				if cyc < resetCycles {
					level = assert
				}
				psim.Spread(w, level)
			case cyc < resetCycles:
				clear(w)
			default:
				for k := range lanes {
					col[k] = rngs[k].Uint64()
				}
				psim.BitSlice(w, col[:lanes])
			}
			for b, l := range cg.In[i] {
				eng.SetVar(l, w[b])
			}
		}
		eng.Sweep()
		sg.commit(eng)
		sm.commit(eng)
		if cyc < resetCycles {
			continue
		}
		for _, op := range outs {
			var diff uint64
			n := len(op.gv)
			if len(op.mv) < n {
				n = len(op.mv)
			}
			for b := 0; b < n; b++ {
				diff |= eng.Word(op.gv[b]) ^ eng.Word(op.mv[b])
			}
			diff &= active &^ caught
			if diff == 0 {
				continue
			}
			if !v.Detected {
				v.Detected = true
				v.Cycle = cyc - resetCycles
				v.Signal = op.name
				for k := 0; k < lanes; k++ {
					if diff>>uint(k)&1 == 1 {
						v.Lane = k
						break
					}
				}
			}
			caught |= diff
		}
		if caught == active {
			// Every lane has diverged: the first hit fixed Detected, Lane,
			// Cycle and Signal, DetectedLanes cannot grow, and the lane
			// rngs die with this call, so no later cycle can change v.
			break
		}
	}
	for k := 0; k < lanes; k++ {
		if caught>>uint(k)&1 == 1 {
			v.DetectedLanes++
		}
	}
	return v, nil
}

// rngPool recycles the lanes' generators: a math/rand source is about
// 5 KB, and Seed restarts exactly the stream rand.NewSource(seed) yields.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// pairState is one side's bit-sliced architectural state: the values the
// circuit's previous-state variables take before each sweep.
type pairState struct {
	c     *formal.Circuit
	state [][]uint64
	mems  [][][]uint64
}

// newPairState allocates one side's state, broadcasting the initial arena
// of a fresh instance (initial blocks applied) across all 64 lanes. Nil
// if instantiation fails.
func newPairState(c *formal.Circuit, p *sim.Program) *pairState {
	inst, err := p.NewInstance()
	if err != nil {
		return nil
	}
	s := &pairState{c: c, state: make([][]uint64, len(c.Sigs)), mems: make([][][]uint64, len(c.Sigs))}
	for i, sv := range c.Sigs {
		s.state[i] = make([]uint64, len(c.State[i]))
		psim.Spread(s.state[i], inst.Get(sv.Name))
		if sv.IsMem {
			s.mems[i] = make([][]uint64, sv.Depth)
			for dw := 0; dw < sv.Depth; dw++ {
				s.mems[i][dw] = make([]uint64, len(c.StateMem[i][dw]))
				psim.Spread(s.mems[i][dw], inst.GetMem(sv.Name, dw))
			}
		}
	}
	return s
}

// load writes the side's previous state into its circuit variables.
func (s *pairState) load(m *psim.Machine) {
	for i := range s.c.Sigs {
		for b, l := range s.c.State[i] {
			m.SetVar(l, s.state[i][b])
		}
		if mem := s.c.StateMem[i]; mem != nil {
			for dw := range mem {
				for b, l := range mem[dw] {
					m.SetVar(l, s.mems[i][dw][b])
				}
			}
		}
	}
}

// commit reads the side's post-cycle roots back into its state.
func (s *pairState) commit(m *psim.Machine) {
	for i := range s.c.Sigs {
		for b, l := range s.c.Next[i] {
			s.state[i][b] = m.Word(l)
		}
		if mem := s.c.NextMem[i]; mem != nil {
			for dw := range mem {
				for b, l := range mem[dw] {
					s.mems[i][dw][b] = m.Word(l)
				}
			}
		}
	}
}
