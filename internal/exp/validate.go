package exp

import (
	"uvllm/internal/baseline"
	"uvllm/internal/dataset"
	"uvllm/internal/lint"
)

// ExpertPass is the independent validation behind the Fix Rate (paper
// Eq. 2): "after expert review, if the fix is confirmed effective across
// additional scenarios". The expert is simulated by a validation suite no
// method sees during repair:
//
//   - the linter must report no errors;
//   - a long constrained-random regression (800 vectors, a seed none of
//     the methods use) must pass against the golden model;
//   - the directed corner vectors must pass as well.
//
// The validation simulations run on the same backend as the evaluation
// they validate, so `-backend event` really is an end-to-end cross-check.
// The golden module compiles through the bundle's cache (once per
// process, not once per validation) and the 800-vector golden trace
// comes from the memo — the ~12 instances sharing a module replay the
// identical reference stream. Run calls it once per distinct (module,
// candidate) in the run; this function itself keeps no state.
func ExpertPass(source string, m *dataset.Module, svc baseline.SimServices) bool {
	if source == "" {
		return false
	}
	rep := lint.Lint(source)
	if len(rep.Errors()) > 0 {
		return false
	}
	ok, _, _ := baseline.RandomOwnBench(source, m, 800, 987654, svc)
	if !ok {
		return false
	}
	golden, err := svc.Compile(m.Source, m.Top)
	if err != nil {
		return false
	}
	ok, _, _ = baseline.RunOwnBench(source, m, baseline.WeakBench(m, golden.Design()), svc)
	return ok
}
