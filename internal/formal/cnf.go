package formal

// CNF is a clause set in near-DIMACS form: variables are 1-based ints, a
// negative literal is the negation of its variable.
type CNF struct {
	NumVars int
	Clauses [][]int
}

// AddClause appends one clause.
func (c *CNF) AddClause(lits ...int) {
	c.Clauses = append(c.Clauses, lits)
}

// IncTseitin loads AIG cones into a live solver incrementally: each call
// to Lit walks the cone of one literal, allocates solver variables for
// the nodes it has not seen and emits their defining clauses exactly
// once. The AIG is append-only, so a node's definition never changes and
// the emitted clauses stay valid for the lifetime of the solver — this is
// what lets the unrolling loop's iterative deepening extend one retained unrolling
// (frame variables of earlier depths stay allocated and constrained)
// instead of re-Tseitin-ing from scratch at every depth.
type IncTseitin struct {
	g       *AIG
	s       *Solver
	vars    map[uint32]int
	trueVar int // lazily pinned true variable for constant literals
}

// NewIncTseitin binds an incremental loader to a graph/solver pair.
func NewIncTseitin(g *AIG, s *Solver) *IncTseitin {
	return &IncTseitin{g: g, s: s, vars: map[uint32]int{}}
}

// Vars returns the live AIG-node-to-solver-variable mapping (grown by
// every Lit call) — the decode map for SAT models, in the same form
// Tseitin returns.
func (t *IncTseitin) Vars() map[uint32]int { return t.vars }

// Lit returns the solver literal equivalent to the AIG literal l, loading
// the defining clauses of any cone nodes the solver has not seen yet.
// Constant literals map onto a dedicated variable pinned true by a unit
// clause.
func (t *IncTseitin) Lit(l Lit) int {
	if c, v := t.g.IsConst(l); c {
		if t.trueVar == 0 {
			t.trueVar = t.s.NewVar()
			t.s.AddClause(t.trueVar)
		}
		if v {
			return t.trueVar
		}
		return -t.trueVar
	}
	t.load(l.Node())
	v := t.vars[l.Node()]
	if l.Neg() {
		return -v
	}
	return v
}

// load emits defining clauses for every unvisited node in n's cone,
// bottom-up.
func (t *IncTseitin) load(n uint32) {
	if _, ok := t.vars[n]; ok {
		return
	}
	g, s := t.g, t.s
	stack := []uint32{n}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		if _, ok := t.vars[nd]; ok {
			stack = stack[:len(stack)-1]
			continue
		}
		node := g.nodes[nd]
		if node.a == varSentinel {
			t.vars[nd] = s.NewVar()
			stack = stack[:len(stack)-1]
			continue
		}
		an, bn := node.a.Node(), node.b.Node()
		if _, ok := t.vars[an]; !ok && an != 0 {
			stack = append(stack, an)
			continue
		}
		if _, ok := t.vars[bn]; !ok && bn != 0 {
			stack = append(stack, bn)
			continue
		}
		v := s.NewVar()
		t.vars[nd] = v
		a, b := t.Lit(node.a), t.Lit(node.b)
		// v <-> a AND b
		s.AddClause(-v, a)
		s.AddClause(-v, b)
		s.AddClause(v, -a, -b)
		stack = stack[:len(stack)-1]
	}
}

// Tseitin converts the cone of influence of the given roots into CNF,
// asserting every root literal true. It returns the clause set and the
// mapping from AIG node index to CNF variable (only nodes inside the cone
// are mapped; the caller uses the map to decode SAT models back into AIG
// variable assignments).
func (g *AIG) Tseitin(roots []Lit) (*CNF, map[uint32]int) {
	cnf := &CNF{}
	vars := map[uint32]int{}
	newVar := func(n uint32) int {
		if v, ok := vars[n]; ok {
			return v
		}
		cnf.NumVars++
		vars[n] = cnf.NumVars
		return cnf.NumVars
	}
	lit := func(l Lit) int {
		v := vars[l.Node()]
		if l.Neg() {
			return -v
		}
		return v
	}

	// Collect the cone bottom-up.
	visited := map[uint32]bool{0: true}
	var order []uint32
	var stack []uint32
	for _, r := range roots {
		if n := r.Node(); !visited[n] {
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if visited[n] {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := g.nodes[n]
		if nd.a == varSentinel {
			visited[n] = true
			order = append(order, n)
			stack = stack[:len(stack)-1]
			continue
		}
		an, bn := nd.a.Node(), nd.b.Node()
		if !visited[an] {
			stack = append(stack, an)
			continue
		}
		if !visited[bn] {
			stack = append(stack, bn)
			continue
		}
		visited[n] = true
		order = append(order, n)
		stack = stack[:len(stack)-1]
	}

	for _, n := range order {
		v := newVar(n)
		nd := g.nodes[n]
		if nd.a == varSentinel {
			continue // free input variable: no defining clauses
		}
		a, b := lit(nd.a), lit(nd.b)
		// v <-> a AND b
		cnf.AddClause(-v, a)
		cnf.AddClause(-v, b)
		cnf.AddClause(v, -a, -b)
	}
	for _, r := range roots {
		if c, val := g.IsConst(r); c {
			if !val {
				// Root is constant false: the formula is trivially UNSAT.
				cnf.AddClause()
			}
			continue
		}
		cnf.AddClause(lit(r))
	}
	return cnf, vars
}
