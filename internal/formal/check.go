package formal

import "fmt"

// check is the one unrolling loop behind every formal check: it asks
// whether some output of the miter's two designs can differ. The base
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
// outputs can first differ at the r-th cycle of the free-state window.
// Before the first round the miter strengthens the window with the
// signal correspondence it proves (see corr.go); refutations at depth 0
// end before that and never pay for it. The hypotheses — ¬bad at window
// cycles 1..r-1 and pairwise distinctness of the window states (the
// loop-free path constraint that makes k-induction complete) — grow
// monotonically with r, so each is committed as a permanent clause. An
// UNSAT step at round r, together with the base answers at depths
// 0..r-1, proves the equivalence for all time (Unbounded, Depth = r):
// any reachable failure would embed a loop-free window satisfying the
// round-r query, and every reachable state satisfies the proved
// invariants. A window that leaves the blastable subset, fails
// structurally, or exhausts its conflict budget degrades the check to
// plain bounded BMC.
//
// A base-side exhaustion is ErrBudget. Options.Ctx is checked before
// every depth and interrupts a solve in flight; either way the check
// reports ErrCancelled. Stats.AIGNodes is the graph size at whichever
// exit the check takes.
func check(u *miter, k int, opts Options, induct bool) (res EquivResult, err error) {
	g := u.g
	defer func() { res.Stats.AIGNodes = g.NumNodes() }()
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
		bad, err := u.advance(false)
		if err != nil {
			return res, err
		}
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
				res.Cex = u.cex(sBase, tiB, t)
				if opts.MinimizeCex {
					res.RawCex = res.Cex
					minimizeModel(sBase, tiB, badLit, u.in)
					if err := opts.cancelled(t); err != nil {
						return res, err
					}
					res.Cex = u.cex(sBase, tiB, t)
				}
				return res, nil
			}
			sBase.AddClause(-badLit)
		}

		// ---- inductive step, window r = t+1 ----
		if !inductionAlive {
			continue
		}
		if t == 0 {
			solves, err := u.strengthen(opts)
			res.Stats.Solves = append(res.Stats.Solves, solves...)
			if err != nil {
				return res, err
			}
		} else {
			// Commit the monotone hypotheses that round t established:
			// the window cannot first fail at cycle t, and window state t
			// is distinct from every earlier one.
			if c, _ := g.IsConst(prevIndBad); !c {
				sInd.AddClause(-tiI.Lit(prevIndBad))
			}
			for i := 0; i < t; i++ {
				sInd.AddClause(tiI.Lit(u.distinct(i, t)))
			}
		}
		indBad, err := u.advance(true)
		if err != nil {
			// Free-start execution outside the supported subset (e.g. a
			// loop bound that is only constant from the reset state).
			inductionAlive = false
			continue
		}
		if c, v := g.IsConst(indBad); c {
			if v {
				// Structurally differing from an arbitrary state: the step
				// can never soundly close. (The base case refutes such a
				// pair at this very depth anyway.)
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
			return res, nil
		}
		prevIndBad = indBad
	}
	res.Equivalent = true
	res.Depth = k
	return res, nil
}
