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
//
// Storage is dense, MiniSat-style: the graph numbers its nodes densely,
// so the node-to-variable mapping is a slice indexed by node that grows
// with the graph. A load first collects its cone's unloaded nodes, then
// reserves solver room for exactly that many variables and their
// clauses (Solver.reserve) and only then emits them, so NewVar and the
// clause arena extend within capacity instead of growing an element at
// a time. Variables are numbered, and clauses emitted, in the same
// bottom-up order as a node-at-a-time load, so no search decision moves.
type IncTseitin struct {
	g       *AIG
	s       *Solver
	vars    []int32  // per AIG node: its solver variable, 0 while not loaded
	stack   []uint32 // load's DFS stack, reused across loads
	order   []uint32 // load's cone nodes in emission order, reused across loads
	trueVar int      // lazily pinned true variable for constant literals
}

// pending marks a node a load has queued but not yet numbered.
const pending int32 = -1

// andClauseWords is the arena room one AND gate's definition takes: a
// length word plus the literals of each of its two binary clauses and
// its one ternary clause.
const andClauseWords = 3 + 3 + 4

// NewIncTseitin binds an incremental loader to a graph/solver pair.
func NewIncTseitin(g *AIG, s *Solver) *IncTseitin {
	return &IncTseitin{g: g, s: s}
}

// Var returns the solver variable of AIG node n — the decode map for SAT
// models — or 0 when no cone loaded so far contains n, which Solver.Value
// reads as false.
func (t *IncTseitin) Var(n uint32) int {
	if int(n) < len(t.vars) {
		return int(t.vars[n])
	}
	return 0
}

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
	n := l.Node()
	if t.Var(n) == 0 {
		t.load(n)
	}
	v := int(t.vars[n])
	if l.Neg() {
		return -v
	}
	return v
}

// load emits defining clauses for every unloaded node in n's cone,
// bottom-up: a depth-first walk queues each node once both its fanins
// are loaded or queued, then the queued nodes get their variables and
// clauses in queue order.
func (t *IncTseitin) load(n uint32) {
	g, s := t.g, t.s
	if len(t.vars) < len(g.nodes) {
		t.vars = append(t.vars, make([]int32, len(g.nodes)-len(t.vars))...)
	}
	order, ands := t.order[:0], 0
	stack := append(t.stack[:0], n)
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		if t.vars[nd] != 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		node := g.nodes[nd]
		if node.a != varSentinel {
			if an := node.a.Node(); an != 0 && t.vars[an] == 0 {
				stack = append(stack, an)
				continue
			}
			if bn := node.b.Node(); bn != 0 && t.vars[bn] == 0 {
				stack = append(stack, bn)
				continue
			}
			ands++
		}
		t.vars[nd] = pending
		order = append(order, nd)
		stack = stack[:len(stack)-1]
	}
	t.stack, t.order = stack, order
	s.reserve(len(order), ands*andClauseWords)
	for _, nd := range order {
		v := s.NewVar()
		t.vars[nd] = int32(v)
		node := g.nodes[nd]
		if node.a == varSentinel {
			continue
		}
		a, b := t.Lit(node.a), t.Lit(node.b)
		// v <-> a AND b
		s.AddClause(-v, a)
		s.AddClause(-v, b)
		s.AddClause(v, -a, -b)
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
