package formal

import "sort"

// minimizeModel greedily shrinks the solver's captured SAT model toward a
// low-weight counterexample, using the incremental interface: the miter
// divergence stays assumed (badLit) while each stimulus bit is probed
// with an assumption forcing it to zero. Bits already zero in the model
// are frozen for free; a bit at one is re-solved with the zero assumption
// and frozen at whichever value the solver can still justify. Cycles are
// visited latest-first (suffix cycles rarely matter for an earliest-cycle
// divergence and zero out en masse), names in sorted order, bits
// LSB-first, so the result is deterministic.
//
// The invariant throughout is that the captured model satisfies badLit
// and every frozen literal so far: zero-freezes only restate model
// values, successful probes re-capture a model under the extended
// assumption set, and failed or exhausted probes freeze the bit at its
// current model value. The caller therefore decodes the final model
// directly — no closing solve is needed, and an exhausted probe degrades
// to "bit stays as-is" instead of an error. The pass is greedy, not
// monotone: a successful probe re-captures a whole model, which can set
// bits of cycles not visited yet, so the result can weigh more than the
// raw model; check keeps whichever of the two is lighter.
func minimizeModel(s *Solver, ti *IncTseitin, badLit int, inputs []map[string]Vec) {
	fixed := []int{badLit}
	for t := len(inputs) - 1; t >= 0; t-- {
		names := make([]string, 0, len(inputs[t]))
		for n := range inputs[t] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			for _, bit := range inputs[t][n] {
				if c, _ := ti.g.IsConst(bit); c {
					continue
				}
				v := ti.Var(bit.Node())
				if v == 0 {
					continue // outside every solved cone: decodes to zero already
				}
				lit := v
				if bit.Neg() {
					lit = -v
				}
				if s.Value(v) == bit.Neg() {
					// Already zero in the model: freeze without solving.
					fixed = append(fixed, -lit)
					continue
				}
				if s.SolveAssuming(append(fixed, -lit)...) {
					fixed = append(fixed, -lit)
				} else {
					fixed = append(fixed, lit)
				}
			}
		}
	}
}
