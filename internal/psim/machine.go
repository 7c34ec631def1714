package psim

import "uvllm/internal/formal"

// op is one compiled AND gate over two fanin literals a and b (node index
// shifted left, negation in bit 0, as formal.Lit encodes them):
// vals[out] = (vals[a>>1] ^ -(a&1)) & (vals[b>>1] ^ -(b&1)). Twelve bytes
// a gate keep the op list dense in cache, and the sweep loop stays
// branch-free: the negation bit widens to a full-word XOR mask in place.
type op struct {
	a, b, out uint32
}

// Machine is a word-level evaluator for a formal.AIG: each node holds one
// uint64, one bit per lane, so a single sweep evaluates the graph for 64
// independent assignments at once. A machine built over a graph holding
// several circuits (NewCircuitShared) evaluates all of them in the one
// sweep — shared structure is computed once.
type Machine struct {
	vals []uint64
	ops  []op
}

// NewMachine compiles g into a straight-line op list. AIG nodes are
// created in topological order, so the list in node order is a complete
// evaluation order. The machine snapshots the graph's current size; nodes
// added to g afterwards are not evaluated.
func NewMachine(g *formal.AIG) *Machine {
	n := g.NumNodes()
	m := &Machine{vals: make([]uint64, n)}
	for i := uint32(1); i < uint32(n); i++ {
		a, b, isAnd := g.Fanins(i)
		if !isAnd {
			continue
		}
		m.ops = append(m.ops, op{a: uint32(a), b: uint32(b), out: i})
	}
	return m
}

// negMask expands a literal's negation bit to a full-word XOR mask.
func negMask(l formal.Lit) uint64 {
	if l.Neg() {
		return ^uint64(0)
	}
	return 0
}

// Ops returns the number of compiled AND gates (the per-sweep work).
func (m *Machine) Ops() int { return len(m.ops) }

// SetVar assigns a 64-lane word to an input variable literal before a
// sweep. Negated literals store the complement so a later Word read
// through any polarity is consistent.
func (m *Machine) SetVar(l formal.Lit, w uint64) {
	m.vals[l.Node()] = w ^ negMask(l)
}

// Sweep evaluates every AND gate once in topological order. Input
// variables keep whatever SetVar last stored (unset variables read zero);
// the constant node reads zero by construction.
func (m *Machine) Sweep() {
	vals := m.vals
	for _, o := range m.ops {
		vals[o.out] = (vals[o.a>>1] ^ -uint64(o.a&1)) & (vals[o.b>>1] ^ -uint64(o.b&1))
	}
}

// Word reads a literal's 64-lane word after a sweep.
func (m *Machine) Word(l formal.Lit) uint64 {
	return m.vals[l.Node()] ^ negMask(l)
}
