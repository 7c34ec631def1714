// Package formal is the repository's third verification oracle, and the
// first exhaustive one: where the UVM testbench (internal/uvm) and the
// differential backends (internal/rtlgen) can only report "no divergence on
// the stimulus we ran", this package proves two designs equivalent over
// *all* stimulus up to a bounded depth, or for all time. It is built
// from scratch on the standard library, like everything else here, in
// three layers:
//
//   - a bit-blaster (blast.go) that lowers a compiled, cleanly levelized
//     sim.Program — combinational closures, sequential next-state
//     functions, memories small enough to blast — into an and-inverter
//     graph (AIG) over per-bit variables, replaying the simulator's exact
//     phase schedule symbolically;
//   - Tseitin CNF conversion (cnf.go) and a CDCL SAT solver (sat.go) with
//     two-watched-literal propagation, VSIDS-lite decision ordering, phase
//     saving and Luby restarts;
//   - on top of those, bounded and inductive equivalence checking
//     (equiv.go, check.go): combinational and k-depth sequential
//     equivalence of two designs via a miter over their unrolled
//     transition relations, which k-induction upgrades to an all-time
//     proof when its step closes. Refutations come back as concrete
//     per-cycle input vectors convertible into a uvm stimulus sequence,
//     so every SAT verdict is replayable on both simulation backends.
package formal

// Lit is an AIG literal: a node index shifted left once, with the low bit
// carrying negation. Node 0 is the constant-false node, so False is the
// literal 0 and True its negation.
type Lit uint32

// Constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// Not returns the negation of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Node returns the AIG node index the literal points at.
func (l Lit) Node() uint32 { return uint32(l) >> 1 }

// varSentinel marks the fanins of input-variable nodes.
const varSentinel = ^Lit(0)

// aigNode is one AIG node: an AND gate over two literals, or an input
// variable (both fanins varSentinel), or the constant node 0.
type aigNode struct {
	a, b Lit
}

// AIG is a structurally hashed and-inverter graph. Every combinational
// function the bit-blaster builds is a vector of literals into one shared
// AIG; structural hashing plus constant/idempotence simplification keep
// equal subcircuits equal literals, which is what makes golden-vs-golden
// miters collapse and shared unrollings cheap.
type AIG struct {
	nodes  []aigNode
	strash strashTable
	nVars  int
}

// NewAIG returns an empty graph containing only the constant node.
func NewAIG() *AIG {
	return &AIG{
		nodes:  []aigNode{{a: varSentinel, b: varSentinel}},
		strash: newStrashTable(1 << 10),
	}
}

// strashTable is an open-addressed (linear probing) hash table from the
// packed (a, b) fanin pair to the node literal. It sits on the single
// hottest path of bit-blasting — every AND construction probes it — where
// a plain Go map showed up as ~30% of the profile.
type strashTable struct {
	keys []uint64 // 0 = empty slot (the pair (False, False) never hashes: And folds it)
	vals []Lit
	n    int
}

func newStrashTable(size int) strashTable {
	return strashTable{keys: make([]uint64, size), vals: make([]Lit, size)}
}

func strashHash(key uint64) uint64 {
	key *= 0x9e3779b97f4a7c15
	return key ^ key>>29
}

// get looks up a packed fanin pair.
func (t *strashTable) get(key uint64) (Lit, bool) {
	mask := uint64(len(t.keys) - 1)
	for i := strashHash(key) & mask; ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
	}
}

// put inserts a packed fanin pair, growing at 3/4 load.
func (t *strashTable) put(key uint64, val Lit) {
	if (t.n+1)*4 > len(t.keys)*3 {
		old := *t
		*t = newStrashTable(len(old.keys) * 2)
		t.n = old.n
		for i, k := range old.keys {
			if k != 0 {
				t.putNoGrow(k, old.vals[i])
			}
		}
	}
	t.putNoGrow(key, val)
	t.n++
}

func (t *strashTable) putNoGrow(key uint64, val Lit) {
	mask := uint64(len(t.keys) - 1)
	i := strashHash(key) & mask
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	t.vals[i] = val
}

// NumNodes returns the node count (constant and variables included).
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NumVars returns the number of input variables created so far.
func (g *AIG) NumVars() int { return g.nVars }

// NewVar allocates a fresh input variable and returns its positive
// literal.
func (g *AIG) NewVar() Lit {
	idx := uint32(len(g.nodes))
	g.nodes = append(g.nodes, aigNode{a: varSentinel, b: varSentinel})
	g.nVars++
	return Lit(idx << 1)
}

// Fanins returns node i's fanin literals and whether the node is an AND
// gate (false for the constant node and for input variables). Nodes are
// created in topological order, so a single pass over 1..NumNodes()-1
// visiting each AND's fanins is a complete evaluation order — the export
// that lets a word-level evaluator (internal/psim) compile the graph into
// a straight-line op list without re-walking construction.
func (g *AIG) Fanins(i uint32) (a, b Lit, isAnd bool) {
	n := g.nodes[i]
	if i == 0 || n.a == varSentinel {
		return 0, 0, false
	}
	return n.a, n.b, true
}

// IsConst reports whether the literal is constant, and its value.
func (g *AIG) IsConst(l Lit) (isConst, val bool) {
	if l.Node() == 0 {
		return true, l.Neg()
	}
	return false, false
}

// And returns a literal for a AND b, simplifying trivial cases and
// reusing an existing node when the same (a, b) pair was built before.
func (g *AIG) And(a, b Lit) Lit {
	if a == False || b == False || a == b.Not() {
		return False
	}
	if a == True {
		return b
	}
	if b == True || a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if l, ok := g.strash.get(key); ok {
		return l
	}
	idx := uint32(len(g.nodes))
	g.nodes = append(g.nodes, aigNode{a: a, b: b})
	l := Lit(idx << 1)
	g.strash.put(key, l)
	return l
}

// Or returns a OR b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a XOR b.
func (g *AIG) Xor(a, b Lit) Lit {
	if ca, va := g.IsConst(a); ca {
		if va {
			return b.Not()
		}
		return b
	}
	if cb, vb := g.IsConst(b); cb {
		if vb {
			return a.Not()
		}
		return a
	}
	if a == b {
		return False
	}
	if a == b.Not() {
		return True
	}
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns c ? t : e.
func (g *AIG) Mux(c, t, e Lit) Lit {
	if c == True {
		return t
	}
	if c == False {
		return e
	}
	if t == e {
		return t
	}
	return g.Or(g.And(c, t), g.And(c.Not(), e))
}

// Eval computes each root literal's value under an assignment to the
// input variables (assign is called with the variable's node index;
// unconstrained variables should read false). It is how counterexample
// models are decoded back into concrete signal values.
func (g *AIG) Eval(assign func(node uint32) bool, roots []Lit) []bool {
	// Iterative post-order over the union cone of the roots.
	val := make([]int8, len(g.nodes)) // 0 unknown, 1 false, 2 true
	val[0] = 1
	var stack []uint32
	for _, r := range roots {
		stack = append(stack, r.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if val[n] != 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := g.nodes[n]
		if nd.a == varSentinel {
			if assign(n) {
				val[n] = 2
			} else {
				val[n] = 1
			}
			stack = stack[:len(stack)-1]
			continue
		}
		an, bn := nd.a.Node(), nd.b.Node()
		if val[an] == 0 {
			stack = append(stack, an)
			continue
		}
		if val[bn] == 0 {
			stack = append(stack, bn)
			continue
		}
		av := (val[an] == 2) != nd.a.Neg()
		bv := (val[bn] == 2) != nd.b.Neg()
		if av && bv {
			val[n] = 2
		} else {
			val[n] = 1
		}
		stack = stack[:len(stack)-1]
	}
	out := make([]bool, len(roots))
	for i, r := range roots {
		out[i] = (val[r.Node()] == 2) != r.Neg()
	}
	return out
}

// evalWords is Eval over 64 assignments at once: pattern gives each
// input variable's value under all 64, one per bit, and each root's 64
// values come back the same way. Nodes are created after their fanins,
// so one ascending pass over the marked cone evaluates it in order.
func (g *AIG) evalWords(pattern func(node uint32) uint64, roots []Lit) []uint64 {
	cone := make([]bool, len(g.nodes))
	lo := uint32(len(g.nodes))
	stack := make([]uint32, 0, len(roots))
	for _, r := range roots {
		stack = append(stack, r.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == 0 || cone[n] {
			continue
		}
		cone[n] = true
		lo = min(lo, n)
		if nd := g.nodes[n]; nd.a != varSentinel {
			stack = append(stack, nd.a.Node(), nd.b.Node())
		}
	}
	val := make([]uint64, len(g.nodes))
	word := func(l Lit) uint64 {
		if l.Neg() {
			return ^val[l.Node()]
		}
		return val[l.Node()]
	}
	for n := lo; n < uint32(len(g.nodes)); n++ {
		if !cone[n] {
			continue
		}
		if nd := g.nodes[n]; nd.a == varSentinel {
			val[n] = pattern(n)
		} else {
			val[n] = word(nd.a) & word(nd.b)
		}
	}
	out := make([]uint64, len(roots))
	for i, r := range roots {
		out[i] = word(r)
	}
	return out
}
