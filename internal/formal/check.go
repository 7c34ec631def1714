package formal

import "fmt"

// property is one safety property over an unrolled design, in the two
// unrollings of k-induction: the base path, started from the concrete
// post-reset state, and the window, started from a free state (which
// the property allocates when it is built for an inductive check). The
// two-design miter and one assertion over one design implement it.
type property interface {
	// advance steps the base path (window=false) or the window one
	// cycle under fresh inputs and returns the literal "the property
	// fails at this cycle".
	advance(window bool) (Lit, error)
	// distinct is the literal "window states i and j differ" over the
	// sequential state (state 0 is the free start).
	distinct(i, j int) Lit
	// cex decodes a satisfying base-path model into a counterexample
	// that fails at cycle t.
	cex(s *Solver, vars map[uint32]int, t int) *Counterexample
	// inputs returns the base path's per-cycle input variables, the
	// bits counterexample minimization drives toward zero.
	inputs() []map[string]Vec
}

// check is the one unrolling loop behind every formal check. The base
// case is incremental BMC by iterative deepening: one retained solver,
// each depth t solved under the single assumption bad_t and, on UNSAT,
// strengthened into the permanent fact ¬bad_t, so deeper solves reuse
// everything learned at shallower ones. A depth whose bad literal
// collapses structurally to false needs no solve; a SAT answer is a
// genuine counterexample at the earliest failing cycle (minimized under
// Options.MinimizeCex).
//
// With induct, each depth also runs one round of Sheeran-style
// k-induction on a second solver: window round r = t+1 asks whether the
// property can first fail at the r-th cycle of the free-state window.
// The hypotheses — ¬bad at window cycles 1..r-1 and pairwise
// distinctness of the window states (the loop-free path constraint that
// makes k-induction complete) — grow monotonically with r, so each is
// committed as a permanent clause. An UNSAT step at round r, together
// with the base answers at depths 0..r-1, proves the property for all
// time (Unbounded, Depth = r): any reachable failure would embed a
// loop-free window satisfying the round-r query. A window that leaves
// the blastable subset, fails structurally, or exhausts its conflict
// budget degrades the check to plain bounded BMC.
//
// A base-side exhaustion is ErrBudget. Options.Ctx is checked before
// every depth and interrupts a solve in flight; either way the check
// reports ErrCancelled.
func check(g *AIG, p property, k int, opts Options, induct bool) (EquivResult, error) {
	var res EquivResult
	sBase := opts.solver()
	tiB := NewIncTseitin(g, sBase)
	var sInd *Solver
	var tiI *IncTseitin
	baseSpan := "bmc_depth"
	if induct {
		sInd = opts.solver()
		tiI = NewIncTseitin(g, sInd)
		baseSpan = "induct_base"
	}
	prevIndBad := False // bad literal of the previous round's window cycle
	inductionAlive := induct

	for t := 0; t < k; t++ {
		if err := opts.cancelled(t); err != nil {
			return res, err
		}
		// ---- base case, depth t ----
		bad, err := p.advance(false)
		if err != nil {
			return res, err
		}
		res.Stats.AIGNodes = g.NumNodes()
		if c, v := g.IsConst(bad); !c || v {
			badLit := tiB.Lit(bad)
			sp := opts.Span.Child(baseSpan)
			sp.SetArg("depth", fmt.Sprintf("%d", t))
			sat := sBase.SolveAssuming(badLit)
			sp.End()
			res.Stats.Solves = append(res.Stats.Solves, sBase.CallStats())
			if sBase.Exhausted() {
				if err := opts.cancelled(t); err != nil {
					return res, err
				}
				return res, fmt.Errorf("%w: depth %d after %d conflicts", ErrBudget, t, sBase.Stats().Conflicts)
			}
			if sat {
				res.Depth = t
				res.Cex = p.cex(sBase, tiB.Vars(), t)
				if opts.MinimizeCex {
					res.RawCex = res.Cex
					minimizeModel(sBase, tiB, badLit, p.inputs())
					if err := opts.cancelled(t); err != nil {
						return res, err
					}
					res.Cex = p.cex(sBase, tiB.Vars(), t)
				}
				return res, nil
			}
			sBase.AddClause(-badLit)
		}

		// ---- inductive step, window r = t+1 ----
		if !inductionAlive {
			continue
		}
		if t > 0 {
			// Commit the monotone hypotheses that round t established:
			// the window cannot first fail at cycle t, and window state t
			// is distinct from every earlier one.
			if c, _ := g.IsConst(prevIndBad); !c {
				sInd.AddClause(-tiI.Lit(prevIndBad))
			}
			for i := 0; i < t; i++ {
				sInd.AddClause(tiI.Lit(p.distinct(i, t)))
			}
		}
		indBad, err := p.advance(true)
		if err != nil {
			// Free-start execution outside the supported subset (e.g. a
			// loop bound that is only constant from the reset state).
			inductionAlive = false
			continue
		}
		if c, v := g.IsConst(indBad); c {
			if v {
				// Structurally failing from an arbitrary state: the step
				// can never soundly close. (The base case refutes such a
				// property at this very depth anyway.)
				inductionAlive = false
				continue
			}
			res.Equivalent, res.Unbounded, res.Depth = true, true, t+1
			return res, nil
		}
		indBadLit := tiI.Lit(indBad)
		sp := opts.Span.Child("induct_step")
		sp.SetArg("window", fmt.Sprintf("%d", t+1))
		sat := sInd.SolveAssuming(indBadLit)
		sp.End()
		res.Stats.Solves = append(res.Stats.Solves, sInd.CallStats())
		if sInd.Exhausted() {
			if err := opts.cancelled(t); err != nil {
				return res, err
			}
			inductionAlive = false
			continue
		}
		if !sat {
			res.Equivalent, res.Unbounded, res.Depth = true, true, t+1
			res.Stats.AIGNodes = g.NumNodes()
			return res, nil
		}
		prevIndBad = indBad
	}
	res.Equivalent = true
	res.Depth = k
	res.Stats.AIGNodes = g.NumNodes()
	return res, nil
}
