package formal

import (
	"slices"
	"sort"
)

// CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
// analysis with clause learning, VSIDS-lite decision ordering (activity
// heap with exponential decay), phase saving and Luby restarts, plus the
// MiniSat incremental interface — assumption-based solving with
// final-conflict (unsat core) extraction, on-the-fly variable and clause
// addition, and learned-clause retention across calls. Standard library
// only, like every engine in this repository; sized for the bit-blasted
// miters of small RTL designs, whose induction-step solvers grow to tens
// of thousands of variables (about 24K on fifo_sync, 42K on ram_sp).

// SolveStats counts solver work for the BMC depth / conflict statistics
// reported by cmd/experiments -v.
type SolveStats struct {
	Vars         int
	Clauses      int
	Conflicts    int
	Decisions    int
	Propagations int
	Restarts     int
	Learned      int
}

// Solver is an incremental CDCL SAT solver: add clauses (and variables)
// at any point between calls, solve under per-call assumptions with
// SolveAssuming, read the model of a satisfiable call with Value and the
// final-conflict core of an assumption-failed call with UnsatCore.
// Learned clauses, variable activity and saved phases persist across
// calls — the clause set only ever grows, so everything learned stays
// valid and later calls over the same instance start warm.
//
// Storage follows MiniSat's layout: every clause lives in one int32
// arena (a length word followed by its literals) and is referred to by
// the offset of its first literal, reasons are such offsets, the
// assignment is indexed by literal so a truth test is one load, and a
// watch entry carries a binary clause's other literal so binary clauses
// — two of the three Tseitin emits per AND gate — propagate without
// touching the arena. The layout must not steer the search: watch lists
// keep their visit order, and every clause analyze reads has its
// literals in the order the two-watched-literal swaps leave them, binary
// clauses included, because analyze's bump order breaks activity ties
// (TestSearchPinned holds this). Growth is paid per load, not per
// element: an incremental loader reserves room for a cone's variables
// and clauses before it emits them (reserve), and a fresh variable's
// watch lists start with room carved from a shared slab.
type Solver struct {
	// MaxConflicts, when positive, bounds the search: each call gives up
	// after that many conflicts of its own and reports false with
	// Exhausted() set. The budget is per call — calling again after an
	// exhausted give-up resumes the search (learned clauses and activity
	// intact) under a fresh budget, while Stats() keeps lifetime totals.
	// The cutoff is deterministic, so budgeted callers (the differential
	// oracles) skip the same hard instances on every run.
	MaxConflicts int
	exhausted    bool
	// stop, when set, is polled every stopPoll conflicts of a call; a
	// true answer ends the call the way an exhausted budget does.
	stop func() bool

	nVars   int
	arena   []int32   // clauses: a length word, then the literals
	watches [][]watch // per internal literal
	slab    []watch   // room not yet carved into fresh variables' watch lists

	vals     []int8  // per internal literal: 0 unassigned, 1 true, -1 false
	level    []int32 // per var
	reason   []int32 // per var: implying clause, noReason for decisions and root units
	trail    []int32 // internal literals in assignment order
	trailLim []int32 // trail length at each decision level
	qhead    int

	activity []float64
	varInc   float64
	heap     []int32 // binary max-heap of vars by activity
	heapPos  []int32 // var -> heap index, -1 when absent
	phase    []bool

	seen   []bool
	learnt []int32 // analyze's learned-clause buffer
	added  []int32 // AddClause's literal buffer
	unsat  bool
	stats  SolveStats

	model    []int8  // captured literal values of the last satisfiable call
	assume   []int32 // the current call's assumptions, internal form
	lastCore []int   // final-conflict core of the last assumption failure
	callBase SolveStats
}

// watch is one watch-list entry: the watched clause, and for a binary
// clause its other literal (noLit for a longer clause), which is all
// propagation needs to decide a binary clause.
type watch struct {
	cref  int32
	other int32
}

// stopPoll is the conflict interval at which a solve polls its stop
// check: rare enough to cost nothing, frequent enough that a cancelled
// context interrupts even a deep miter within milliseconds.
const stopPoll = 256

const (
	noLit    int32 = -1
	noReason int32 = 0 // no clause starts at offset 0: the arena opens with a length word
)

// NewSolver creates a solver over variables 1..numVars.
func NewSolver(numVars int) *Solver {
	s := &Solver{
		nVars:    numVars,
		watches:  make([][]watch, 2*numVars+2),
		vals:     make([]int8, 2*numVars+2),
		level:    make([]int32, numVars+1),
		reason:   make([]int32, numVars+1),
		activity: make([]float64, numVars+1),
		varInc:   1.0,
		heapPos:  make([]int32, numVars+1),
		phase:    make([]bool, numVars+1),
		seen:     make([]bool, numVars+1),
	}
	for v := 1; v <= numVars; v++ {
		s.heapPos[v] = -1
		s.heapPush(int32(v))
	}
	s.stats.Vars = numVars
	return s
}

// NewSolverCNF creates a solver preloaded with a clause set.
func NewSolverCNF(c *CNF) *Solver {
	s := NewSolver(c.NumVars)
	for _, cl := range c.Clauses {
		s.AddClause(cl...)
	}
	return s
}

// intLit converts a DIMACS-style literal to the internal encoding:
// var<<1 | sign, sign 1 = negated.
func intLit(l int) int32 {
	if l < 0 {
		return int32(-l)<<1 | 1
	}
	return int32(l) << 1
}

func litVar(l int32) int32 { return l >> 1 }
func litNeg(l int32) int32 { return l ^ 1 }

// extLit converts an internal literal back to DIMACS form.
func extLit(l int32) int {
	if l&1 == 1 {
		return -int(litVar(l))
	}
	return int(litVar(l))
}

// NewVar allocates one fresh variable and returns it. The solver grows in
// place: incremental loaders (IncTseitin) interleave NewVar and AddClause
// with solve calls, and everything learned over the old variables stays
// valid because the instance only ever gains variables and clauses. The
// per-variable arrays extend within the capacity reserve left, and the
// variable's two watch lists start with room for watchCap entries each,
// carved from the solver's slab.
func (s *Solver) NewVar() int {
	s.nVars++
	v := s.nVars
	s.watches = append(s.watches, s.carve(), s.carve())
	s.vals = append(s.vals, 0, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.heapPos = append(s.heapPos, -1)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.heapPush(int32(v))
	s.stats.Vars = s.nVars
	return v
}

// watchCap is the room a fresh variable's watch lists start with. Over
// formal_mix's 173 checks a literal ends with 2.9 watches on average,
// and nine lists in ten hold at most four.
const watchCap = 4

// slabWatches is the least room a slab holds: both watch lists of 64
// variables.
const slabWatches = 2 * watchCap * 64

// reserve makes room for vars more variables — per-variable entries,
// heap slots and watch-list room — and words more arena words, so the
// NewVar and AddClause calls of one load grow nothing element by
// element. Every array grows geometrically (slices.Grow), so a run of
// small reservations still costs amortized constant time per variable.
// Capacity is all it changes: no search decision can see it.
func (s *Solver) reserve(vars, words int) {
	s.watches = slices.Grow(s.watches, 2*vars)
	s.vals = slices.Grow(s.vals, 2*vars)
	s.level = slices.Grow(s.level, vars)
	s.reason = slices.Grow(s.reason, vars)
	s.activity = slices.Grow(s.activity, vars)
	s.heapPos = slices.Grow(s.heapPos, vars)
	s.phase = slices.Grow(s.phase, vars)
	s.seen = slices.Grow(s.seen, vars)
	s.heap = slices.Grow(s.heap, vars)
	s.arena = slices.Grow(s.arena, words)
	if n := 2 * watchCap * vars; len(s.slab) < n {
		s.slab = make([]watch, max(n, slabWatches))
	}
}

// carve returns an empty watch list with room for watchCap entries, cut
// from the slab. Its capacity ends at that room, so a list that outgrows
// it moves to an allocation of its own rather than into its neighbour's.
func (s *Solver) carve() []watch {
	if len(s.slab) < watchCap {
		s.slab = make([]watch, slabWatches)
	}
	w := s.slab[:0:watchCap]
	s.slab = s.slab[watchCap:]
	return w
}

// ensure grows the solver to cover variable v.
func (s *Solver) ensure(v int) {
	for s.nVars < v {
		s.NewVar()
	}
}

// clause returns the literals of the clause at offset cr.
func (s *Solver) clause(cr int32) []int32 {
	return s.arena[cr : cr+s.arena[cr-1]]
}

// AddClause adds one clause in DIMACS-style literals, growing the solver
// to cover any variable it has not seen. Adding an empty (or all-false)
// clause marks the instance unsatisfiable. Clauses may be added between
// solve calls (the solver is always at decision level 0 there): literals
// already false at the root are dropped and clauses already satisfied at
// the root are skipped, which keeps the two-watched-literal invariant
// intact on an instance that carries root-level facts from earlier calls.
func (s *Solver) AddClause(lits ...int) {
	if s.unsat {
		return
	}
	// Deduplicate and drop tautologies with a linear scan: clauses are
	// short (Tseitin emits 2-3 literals) and this path loads every
	// clause of every solve, so a per-clause map would be pure overhead.
	ls := s.added[:0]
	for _, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		s.ensure(v)
		il := intLit(l)
		// Root-level simplification (all current assignments are level 0).
		switch s.vals[il] {
		case 1:
			return // satisfied at the root: nothing to add
		case -1:
			continue // false at the root: drop the literal
		}
		dup := false
		for _, prev := range ls {
			if prev == il {
				dup = true
				break
			}
			if prev == litNeg(il) {
				return // tautology
			}
		}
		if !dup {
			ls = append(ls, il)
		}
	}
	s.added = ls
	s.stats.Clauses++
	switch len(ls) {
	case 0:
		s.unsat = true
	case 1:
		s.assign(ls[0], noReason) // unassigned: the loop above dropped assigned literals
	default:
		s.attach(ls)
	}
}

// attach stores a clause of two or more literals in the arena, watches
// its first two literals and returns its offset.
func (s *Solver) attach(lits []int32) int32 {
	s.arena = append(s.arena, int32(len(lits)))
	cr := int32(len(s.arena))
	s.arena = append(s.arena, lits...)
	a, b := noLit, noLit
	if len(lits) == 2 {
		a, b = lits[1], lits[0]
	}
	s.watches[lits[0]] = append(s.watches[lits[0]], watch{cr, a})
	s.watches[lits[1]] = append(s.watches[lits[1]], watch{cr, b})
	return cr
}

// assign makes an unassigned literal true at the current decision level.
func (s *Solver) assign(l, from int32) {
	v := litVar(l)
	s.vals[l] = 1
	s.vals[l^1] = -1
	s.phase[v] = l&1 == 0
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation to fixpoint, returning the offset of a
// conflicting clause or noReason.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		neg := litNeg(l) // watch lists to service: clauses watching ~l
		ws := s.watches[neg]
		kept := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if w.other != noLit {
				// Binary clause: decided by the other literal alone.
				ws[kept] = w
				kept++
				switch s.vals[w.other] {
				case 0:
					s.assign(w.other, w.cref)
				case -1:
					// Store the literals in the order the longer-clause
					// path's swap leaves a conflict, other first: analyze
					// bumps in this order, and bump order breaks heap ties.
					s.arena[w.cref], s.arena[w.cref+1] = w.other, neg
					return s.conflictAt(neg, ws, kept, i)
				}
				continue
			}
			c := s.clause(w.cref)
			// Ensure the false literal is at position 1.
			if c[0] == neg {
				c[0], c[1] = c[1], c[0]
			}
			if s.vals[c[0]] == 1 {
				ws[kept] = w
				kept++
				continue
			}
			// Look for a replacement watch.
			found := false
			for j := 2; j < len(c); j++ {
				if s.vals[c[j]] != -1 {
					c[1], c[j] = c[j], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], w)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			ws[kept] = w
			kept++
			if s.vals[c[0]] == -1 {
				return s.conflictAt(neg, ws, kept, i)
			}
			s.assign(c[0], w.cref)
		}
		s.watches[neg] = ws[:kept]
	}
	return noReason
}

// conflictAt closes the watch list of neg after a conflict on entry i:
// the entries not yet visited slide down behind the kept ones, and the
// conflicting clause's offset is returned.
func (s *Solver) conflictAt(neg int32, ws []watch, kept, i int) int32 {
	cr := ws[kept-1].cref
	n := copy(ws[kept:], ws[i+1:])
	s.watches[neg] = ws[:kept+n]
	return cr
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level. The clause
// aliases a buffer the next call reuses.
func (s *Solver) analyze(confl int32) ([]int32, int) {
	learned := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	p := noLit
	idx := len(s.trail) - 1
	top := int32(s.decisionLevel())

	for {
		for _, q := range s.clause(confl) {
			if q == p {
				continue
			}
			v := litVar(q)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bump(v)
			if s.level[v] == top {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Walk the trail back to the next seen literal.
		for {
			p = s.trail[idx]
			idx--
			if s.seen[litVar(p)] {
				break
			}
		}
		v := litVar(p)
		s.seen[v] = false
		counter--
		if counter == 0 {
			learned[0] = litNeg(p)
			break
		}
		confl = s.reason[v]
	}

	// Backjump level: the highest level among the non-asserting literals.
	var back int32
	for _, q := range learned[1:] {
		if lv := s.level[litVar(q)]; lv > back {
			back = lv
		}
	}
	// Move a literal of the backjump level into the second watch slot.
	for i := 1; i < len(learned); i++ {
		if s.level[litVar(learned[i])] == back {
			learned[1], learned[i] = learned[i], learned[1]
			break
		}
	}
	for _, q := range learned[1:] {
		s.seen[litVar(q)] = false
	}
	s.varInc /= 0.95
	s.learnt = learned
	return learned, int(back)
}

// bump raises v's activity by the current increment, rescaling every
// activity when it grows too large, and restores heap order.
func (s *Solver) bump(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if i := s.heapPos[v]; i >= 0 {
		s.heapUp(int(i))
	}
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lim := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= lim; i-- {
		l := s.trail[i]
		s.vals[l], s.vals[l^1] = 0, 0
		if v := litVar(l); s.heapPos[v] < 0 {
			s.heapPush(v)
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = lim
}

// newLevel opens a decision level.
func (s *Solver) newLevel() { s.trailLim = append(s.trailLim, int32(len(s.trail))) }

// pickBranch pops the highest-activity unassigned variable.
func (s *Solver) pickBranch() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.vals[v<<1] == 0 {
			if s.phase[v] {
				return v << 1
			}
			return v<<1 | 1
		}
	}
	return noLit
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int) int {
	// Find the finite subsequence containing i.
	k := 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for (1<<uint(k))-1 != i {
		i -= (1 << uint(k-1)) - 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
	return 1 << uint(k-1)
}

// Solve runs the CDCL loop with no assumptions and reports
// satisfiability. Calls are resumable: a false return with Exhausted()
// set is "unknown", and calling again continues the search (learned
// clauses, activity and phases intact) under a fresh MaxConflicts budget.
func (s *Solver) Solve() bool { return s.SolveAssuming() }

// SolveAssuming runs the CDCL loop with the given DIMACS-style literals
// taken as temporary decisions (the MiniSat assumption interface): a true
// return means the clause set is satisfiable with every assumption true
// (read the model with Value), a false return with a non-nil UnsatCore()
// means the assumptions themselves are to blame, and a false return with
// a nil core means the clause set is unsatisfiable outright (or the call
// exhausted its MaxConflicts budget — check Exhausted()). Assumptions
// leave no trace: they are backtracked before the call returns, so the
// same solver instance answers any sequence of assumption sets while
// retaining everything it learned.
func (s *Solver) SolveAssuming(assumptions ...int) bool {
	s.exhausted = false
	s.lastCore = nil
	s.callBase = s.stats
	if s.unsat {
		return false
	}
	s.assume = s.assume[:0]
	for _, a := range assumptions {
		v := a
		if v < 0 {
			v = -v
		}
		if v == 0 {
			continue
		}
		s.ensure(v)
		s.assume = append(s.assume, intLit(a))
	}
	s.cancelUntil(0)
	if s.propagate() != noReason {
		s.unsat = true
		return false
	}
	restart := 1
	budget := 64 * luby(restart)
	conflictsHere := 0
	for {
		if confl := s.propagate(); confl != noReason {
			s.stats.Conflicts++
			conflictsHere++
			if n := s.stats.Conflicts - s.callBase.Conflicts; s.MaxConflicts > 0 && n >= s.MaxConflicts ||
				s.stop != nil && n%stopPoll == 0 && s.stop() {
				s.exhausted = true
				s.cancelUntil(0)
				return false
			}
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false
			}
			learned, back := s.analyze(confl)
			s.cancelUntil(back)
			from := noReason
			if len(learned) > 1 {
				from = s.attach(learned)
				s.stats.Learned++
			}
			s.assign(learned[0], from)
			continue
		}
		if conflictsHere >= budget {
			// Restart: keep learned clauses and phases, drop assignments.
			s.stats.Restarts++
			restart++
			budget = 64 * luby(restart)
			conflictsHere = 0
			s.cancelUntil(0)
			continue
		}
		if s.decisionLevel() < len(s.assume) {
			// Take the next assumption as a decision.
			a := s.assume[s.decisionLevel()]
			switch s.vals[a] {
			case 1:
				// Already implied: push an empty level to keep the
				// level-per-assumption correspondence.
				s.newLevel()
				continue
			case -1:
				// The assumptions conflict with what is implied so far:
				// extract the final-conflict core and fail the call.
				s.lastCore = s.analyzeFinal(a)
				s.cancelUntil(0)
				return false
			}
			s.newLevel()
			s.assign(a, noReason)
			continue
		}
		l := s.pickBranch()
		if l < 0 {
			// All variables assigned, no conflict: capture the model and
			// backtrack the assumptions away.
			s.model = append(s.model[:0], s.vals...)
			s.cancelUntil(0)
			return true
		}
		s.stats.Decisions++
		s.newLevel()
		s.assign(l, noReason)
	}
}

// analyzeFinal walks the implication trail backwards from a failed
// assumption p (whose negation is implied by the clauses plus the
// assumptions taken so far) and collects the subset of assumptions the
// failure actually depends on — the MiniSat final-conflict analysis. The
// returned core is in DIMACS form and includes p itself.
func (s *Solver) analyzeFinal(p int32) []int {
	core := []int{extLit(p)}
	if s.decisionLevel() == 0 {
		return core // ~p is a root-level fact: p alone is inconsistent
	}
	s.seen[litVar(p)] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		l := s.trail[i]
		v := litVar(l)
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == noReason {
			// A decision — at this point every decision is an assumption.
			if s.level[v] > 0 {
				core = append(core, extLit(l))
			}
		} else {
			for _, q := range s.clause(s.reason[v]) {
				if qv := litVar(q); qv != v && s.level[qv] > 0 {
					s.seen[qv] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[litVar(p)] = false
	return core
}

// UnsatCore returns the final-conflict clause of the most recent call: a
// subset of its assumptions that is jointly unsatisfiable with the clause
// set, in the caller's DIMACS form. It is nil when the last call did not
// fail on its assumptions (satisfiable, exhausted, or the clause set is
// unsatisfiable with no assumptions needed).
func (s *Solver) UnsatCore() []int {
	if s.lastCore == nil {
		return nil
	}
	return append([]int(nil), s.lastCore...)
}

// MinimizeCore shrinks the most recent UnsatCore to a locally minimal one
// by deletion: literals are dropped one at a time and each candidate
// subset re-solved, so in the returned core dropping any single literal
// makes the remainder satisfiable (budget-exhausted probes count as
// "cannot drop"). The result is sorted by variable for determinism and
// becomes the solver's current core.
func (s *Solver) MinimizeCore() []int {
	core := append([]int(nil), s.lastCore...)
	for {
		dropped := false
		for i := 0; i < len(core); i++ {
			trial := make([]int, 0, len(core)-1)
			trial = append(trial, core[:i]...)
			trial = append(trial, core[i+1:]...)
			if !s.SolveAssuming(trial...) && !s.Exhausted() {
				// Still UNSAT without core[i]: adopt the (possibly even
				// smaller) final conflict of the probe and rescan.
				core = append([]int(nil), s.UnsatCore()...)
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}
	sort.Slice(core, func(i, j int) bool {
		ai, aj := core[i], core[j]
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		return ai < aj
	})
	s.lastCore = core
	return append([]int(nil), core...)
}

// Value reports the model value of a variable under the model captured by
// the most recent satisfiable call. Variables the solver never saw (or
// that were allocated after that call) read false.
func (s *Solver) Value(v int) bool {
	if v <= 0 || 2*v >= len(s.model) {
		return false
	}
	return s.model[2*v] == 1
}

// Stats returns the lifetime work counters of the solver, accumulated
// across every call. Use CallStats for the most recent call alone.
func (s *Solver) Stats() SolveStats { return s.stats }

// CallStats returns the work of the most recent Solve/SolveAssuming call:
// Conflicts, Decisions, Propagations, Restarts and Learned are per-call
// deltas, while Vars and Clauses report the instance size (totals) at the
// end of the call.
func (s *Solver) CallStats() SolveStats {
	return SolveStats{
		Vars:         s.nVars,
		Clauses:      s.stats.Clauses,
		Conflicts:    s.stats.Conflicts - s.callBase.Conflicts,
		Decisions:    s.stats.Decisions - s.callBase.Decisions,
		Propagations: s.stats.Propagations - s.callBase.Propagations,
		Restarts:     s.stats.Restarts - s.callBase.Restarts,
		Learned:      s.stats.Learned - s.callBase.Learned,
	}
}

// Exhausted reports whether the most recent call gave up on its
// MaxConflicts budget or its stop check (in which case its false return
// is "unknown", not UNSAT). Calling Solve or SolveAssuming again resumes
// the search under a fresh budget.
func (s *Solver) Exhausted() bool { return s.exhausted }

// --- activity heap -----------------------------------------------------
//
// The heap moves a hole instead of swapping: the element ends where the
// swapping formulation would put it, ties included, with half the stores.

func (s *Solver) heapPush(v int32) {
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

// heapUp sifts the element at i toward the root past every parent of
// strictly lower activity.
func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	act := s.activity[v]
	for i > 0 {
		parent := (i - 1) / 2
		pv := s.heap[parent]
		if !(act > s.activity[pv]) {
			break
		}
		s.heap[i] = pv
		s.heapPos[pv] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

// heapDown sifts the element at i toward the leaves, below its more
// active child (the left one on a tie) while that child is strictly more
// active than it.
func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	act := s.activity[v]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		cv := s.heap[c]
		if r := c + 1; r < n && s.activity[s.heap[r]] > s.activity[cv] {
			c, cv = r, s.heap[r]
		}
		if !(s.activity[cv] > act) {
			break
		}
		s.heap[i] = cv
		s.heapPos[cv] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}
