package formal

import (
	"errors"

	"uvllm/internal/assert"
	"uvllm/internal/sim"
)

// Bounded assertion checking: the structural forms internal/assert mines
// (OneHot, Bound, Mutex) reference cycle-sampled port values, which is
// exactly what a Model's unrolled states provide. Forms carrying opaque
// Go predicates (Invariant, Implication) and the reset-conditioned
// ResetValue (vacuous under the frozen-reset protocol) cannot be blasted
// and are reported as skipped.

// AssertVerdict classifies one assertion after a bounded check.
type AssertVerdict int

// Assertion verdicts.
const (
	// AssertProved: the property holds on every post-reset stimulus up to
	// the requested depth.
	AssertProved AssertVerdict = iota
	// AssertRefuted: a concrete stimulus violates the property; the
	// counterexample replays in simulation.
	AssertRefuted
	// AssertSkipped: the assertion form is outside the blastable subset.
	AssertSkipped
)

// String implements fmt.Stringer.
func (v AssertVerdict) String() string {
	switch v {
	case AssertProved:
		return "proved"
	case AssertRefuted:
		return "refuted"
	case AssertSkipped:
		return "skipped"
	}
	return "verdict?"
}

// AssertResult is the outcome of one assertion's bounded check.
type AssertResult struct {
	Assertion assert.Assertion
	Verdict   AssertVerdict
	Unbounded bool            // InductionAssertions: the inductive step closed
	Depth     int             // depth proved (window size when Unbounded), or the violation cycle
	Cex       *Counterexample // refutation stimulus, nil otherwise
	Stats     BMCStats
}

// CheckAssertions bounded-checks each assertion against the design: the
// model is unrolled k cycles from the concrete reset state and each
// cycle's sampled values (inputs and outputs, the UVM monitor's view)
// instantiate the property. Unsupported designs return ErrUnsupported.
func CheckAssertions(prog *sim.Program, clock string, as []assert.Assertion, k int) ([]AssertResult, error) {
	return checkAssertions(prog, clock, as, k, false)
}

// InductionAssertions checks each assertion with k-induction: the
// bounded base case of CheckAssertions plus an inductive step over an
// arbitrary-state window (the same loop as InductionEquivOpts).
// Assertions whose step closes come back AssertProved with Unbounded set
// — the property holds at every cycle of every post-reset run, not just
// to depth k.
func InductionAssertions(prog *sim.Program, clock string, as []assert.Assertion, k int) ([]AssertResult, error) {
	return checkAssertions(prog, clock, as, k, true)
}

// checkAssertions runs every assertion through the unrolling loop, each
// over its own unrolling of one shared model.
func checkAssertions(prog *sim.Program, clock string, as []assert.Assertion, k int, induct bool) ([]AssertResult, error) {
	opts := Options{Clock: clock}
	m, err := newModelShared(NewAIG(), prog, opts)
	if err != nil {
		return nil, err
	}
	var out []AssertResult
	for _, a := range as {
		p, err := newAssertProp(m, a, induct)
		if err != nil {
			return nil, err
		}
		res, err := check(m.g, p, k, opts, induct)
		r := AssertResult{Assertion: a, Verdict: AssertRefuted, Unbounded: res.Unbounded,
			Depth: res.Depth, Cex: res.Cex, Stats: res.Stats}
		switch {
		case errors.Is(err, errSkipped):
			r = AssertResult{Assertion: a, Verdict: AssertSkipped}
		case err != nil:
			return nil, err
		case res.Equivalent:
			r.Verdict = AssertProved
		}
		out = append(out, r)
	}
	return out, nil
}

// PromoteAssertions upgrades every proved assertion to its
// assert.Promoted form (held-on-trace → proved-to-depth-k, or
// assert.DepthUnbounded when the inductive step closed), returning the
// upgraded list alongside the refuted and skipped subsets. The input
// order is preserved in the promoted list: callers can swap it directly
// into a uvm.Config.
func PromoteAssertions(results []AssertResult) (promoted []assert.Assertion, refuted []AssertResult, skipped int) {
	for _, r := range results {
		switch r.Verdict {
		case AssertProved:
			d := r.Depth
			if r.Unbounded {
				d = assert.DepthUnbounded
			}
			promoted = append(promoted, assert.Promote(r.Assertion, d))
		case AssertRefuted:
			refuted = append(refuted, r)
			promoted = append(promoted, r.Assertion)
		default:
			skipped++
			promoted = append(promoted, r.Assertion)
		}
	}
	return promoted, refuted, skipped
}

// errSkipped ends the check of an assertion form outside the blastable
// subset; checkAssertions reports it as AssertSkipped.
var errSkipped = errors.New("formal: assertion form not blastable")

// assertProp is one assertion over one model: "the monitor's sampled
// values violate it at this cycle".
type assertProp struct {
	m    *Model
	a    assert.Assertion
	st   *State           // base path state
	in   []map[string]Vec // base path stimulus, per cycle
	win  []*State         // window states, free start first
	sigs []int            // the model's sequential state (StateSignals)
}

// newAssertProp starts the base path at the concrete reset state and,
// under induct, the window at a free state.
func newAssertProp(m *Model, a assert.Assertion, induct bool) (*assertProp, error) {
	st, err := m.InitState()
	if err != nil {
		return nil, err
	}
	p := &assertProp{m: m, a: a, st: st}
	if induct {
		p.win, p.sigs = []*State{m.FreeState()}, m.StateSignals()
	}
	return p, nil
}

// advance steps the base path or the window one cycle and instantiates
// the assertion over the cycle's inputs and post-cycle signal values.
func (p *assertProp) advance(window bool) (Lit, error) {
	m := p.m
	st := p.st
	if window {
		st = p.win[len(p.win)-1]
	}
	in := m.FreshInputs()
	st, err := m.Step(st, in)
	if err != nil {
		return False, err
	}
	if window {
		p.win = append(p.win, st)
	} else {
		p.st = st
		p.in = append(p.in, in)
	}
	// The monitor samples inputs and outputs after the cycle.
	holds, ok := m.blastAssertion(p.a, func(name string) (Vec, bool) {
		if v, ok := in[name]; ok {
			return v, true
		}
		if idx, ok := m.d.SignalIndex(name); ok {
			return st.vals[idx], true
		}
		return nil, false
	})
	if !ok {
		return False, errSkipped
	}
	return holds.Not(), nil
}

// strengthen proves nothing: an assertion over one model has no second
// design to correspond with.
func (p *assertProp) strengthen(Options) ([]SolveStats, error) { return nil, nil }

// distinct is "window states i and j differ".
func (p *assertProp) distinct(i, j int) Lit {
	return stateDiff(p.m.g, p.m, p.win[i], p.win[j], p.sigs)
}

// cex decodes the base-path stimulus; the failing signal is the
// assertion's name.
func (p *assertProp) cex(s *Solver, vars map[uint32]int, t int) *Counterexample {
	c := extractCex(p.m, p.in, vars, s, nil, t)
	c.Signal = p.a.Name()
	return c
}

// inputs returns the base-path stimulus variables.
func (p *assertProp) inputs() []map[string]Vec { return p.in }

// blastAssertion lowers one structural assertion over the sampled values
// into a single "holds" literal; ok=false marks unsupported forms.
func (m *Model) blastAssertion(a assert.Assertion, values func(string) (Vec, bool)) (Lit, bool) {
	g := m.g
	get := func(name string) Vec {
		if v, ok := values(name); ok {
			return v
		}
		return g.ConstVec(0, 1) // unknown signals sample as zero in the monitor
	}
	switch v := a.(type) {
	case assert.Bound:
		// x <= Limit over the sampled (<= 64-bit) value; an all-ones
		// limit folds to constant true inside UleVec.
		return g.UleVec(g.Resize(get(v.Signal), 64), g.ConstVec(v.Limit, 64)), true
	case assert.Mutex:
		return g.And(g.RedOr(get(v.A)), g.RedOr(get(v.B))).Not(), true
	case assert.OneHot:
		x := get(v.Signal)
		atLeastOne := g.RedOr(x)
		atMostOne := True
		for i := 0; i < len(x); i++ {
			for j := i + 1; j < len(x); j++ {
				atMostOne = g.And(atMostOne, g.And(x[i], x[j]).Not())
			}
		}
		if v.AllowZero {
			return atMostOne, true
		}
		return g.And(atLeastOne, atMostOne), true
	case assert.Promoted:
		return m.blastAssertion(v.Assertion, values)
	default:
		// ResetValue is vacuous under the frozen-reset protocol;
		// Invariant/Implication carry opaque Go predicates.
		return False, false
	}
}
