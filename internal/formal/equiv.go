package formal

import (
	"fmt"
	"math/bits"

	"uvllm/internal/sim"
)

// Counterexample is a refutation witness: the per-cycle stimulus (every
// driven input, frozen reset included) that makes two designs' outputs
// diverge at cycle Cycle of the post-reset run.
// Vectors converts it into replayable per-cycle stimulus — the bridge
// from a SAT model back into the simulation world (wrap the result in a
// uvm.DirectedSequence to play it through a testbench; formal cannot
// import uvm, which now sits above the bit-parallel simulator and the
// bit-blaster both).
type Counterexample struct {
	Inputs []map[string]uint64 // one map per harness cycle, in order
	Cycle  int                 // 0-based cycle of the divergence
	Signal string              // a diverging output
}

// Weight is the total number of set stimulus bits across the whole
// counterexample — the quantity minimization drives down (shorter, mostly
// zero directed sequences replay and read better in uvm logs).
func (c *Counterexample) Weight() int {
	n := 0
	for _, in := range c.Inputs {
		for _, v := range in {
			n += bits.OnesCount64(v)
		}
	}
	return n
}

// Vectors deep-copies the stimulus stream, one map per harness cycle.
func (c *Counterexample) Vectors() []map[string]uint64 {
	vecs := make([]map[string]uint64, len(c.Inputs))
	for i, in := range c.Inputs {
		cp := make(map[string]uint64, len(in))
		for k, v := range in {
			cp[k] = v
		}
		vecs[i] = cp
	}
	return vecs
}

// DefaultBMCDepth is the conventional unrolling depth of the bounded
// checks: deep enough that every register of the benchmark modules is
// written at least once post-reset, shallow enough that full-table
// studies solve in seconds. Callers pass it where no caller-specific
// depth applies.
const DefaultBMCDepth = 8

// EquivResult is the verdict of a bounded equivalence check (or of a
// k-induction run, which can strengthen the bound into an all-time
// proof).
type EquivResult struct {
	Equivalent bool // UNSAT at every depth through K
	// Unbounded marks an equivalence that holds for every depth, not just
	// through K: InductionEquivOpts sets it when the inductive step closes.
	Unbounded bool
	Depth     int             // depth proved/refuted at, or the window that closed induction
	Cex       *Counterexample // nil when equivalent (minimized under Options.MinimizeCex)
	// RawCex is the unminimized counterexample when Options.MinimizeCex
	// rewrote Cex, nil otherwise; tests compare the two.
	RawCex *Counterexample
	Stats  BMCStats
}

// BMCStats aggregates per-depth solver work of one bounded check.
type BMCStats struct {
	AIGNodes int // graph size after the full unrolling
	// Solves has one entry per solver call, in call order: each depth or
	// window round actually solved, and each refinement solve of an
	// induction check's signal correspondence.
	Solves []SolveStats
}

// Conflicts sums the conflict counts over all depths.
func (s BMCStats) Conflicts() int {
	n := 0
	for _, sv := range s.Solves {
		n += sv.Conflicts
	}
	return n
}

// BMCEquivOpts checks bounded sequential equivalence of two compiled
// designs: both are reset concretely, then unrolled k cycles over shared
// per-cycle input variables (a miter), and each depth asks the SAT
// solver whether any output can differ at that cycle (see check for the
// incremental loop). UNSAT through depth k proves the designs
// indistinguishable by any k-cycle post-reset stimulus under the
// protocol (reset held deasserted); SAT returns a replayable
// counterexample at the earliest divergence. Output sets are compared on
// a's ports, with ports b lacks reading zero — the same convention as
// the scoreboard's map compare. A combinational pair is checked
// exhaustively at k=1 with clock "". Designs outside the blastable
// subset return ErrUnsupported.
func BMCEquivOpts(a, b *sim.Program, clock string, k int, opts Options) (EquivResult, error) {
	return equiv(a, b, clock, k, opts, false)
}

// InductionEquivOpts is BMCEquivOpts plus Sheeran-style k-induction:
// each depth also runs one inductive-step round over a window that
// starts from a symbolic product state, upgrading "equivalent to depth
// k" into "equivalent for all time" (Equivalent and Unbounded, Depth =
// the closing window) whenever the step closes. At its first round the
// step proves a signal correspondence — the same-named signals of a and
// b that agree after reset and stay equal from any state where they all
// agree — and starts the window from one free state in which b's
// corresponding bits are a's variables, so an inert mutant folds into
// its golden and typically closes at window 1; the refinement's solves
// are part of Stats.Solves. A refinement or step that exhausts its
// conflict budget degrades (to independent free states, or to plain
// bounded BMC for the remaining depths); a base-side exhaustion is
// ErrBudget as in BMCEquivOpts. The correspondence never touches the
// base path, so no refutation depends on it.
func InductionEquivOpts(a, b *sim.Program, clock string, k int, opts Options) (EquivResult, error) {
	return equiv(a, b, clock, k, opts, true)
}

// equiv blasts the miter of a and b under a "blast" span and runs the
// unrolling loop on it.
func equiv(a, b *sim.Program, clock string, k int, opts Options, induct bool) (EquivResult, error) {
	opts.Clock = clock
	g := NewAIG()
	sp := opts.Span.Child("blast")
	u, err := newMiter(g, a, b, opts, induct)
	sp.End()
	if err != nil {
		return EquivResult{}, err
	}
	return check(u, k, opts, induct)
}

// miter is the equivalence property of two models over one shared AIG:
// "some output differs at this cycle". The base path starts both models
// from their concrete post-reset states; the induction window, when
// present, from free states — independent ones, until strengthen proves
// a signal correspondence and shares the corresponding bits.
type miter struct {
	g              *AIG
	ma, mb         *Model
	sta, stb       *State           // base path states
	resetA, resetB *State           // the post-reset states the base path started from
	in             []map[string]Vec // base path stimulus (a's variables), per cycle
	diffs          []Lit            // per-output difference literals of the latest base cycle
	winA, winB     []*State         // window product states, free start first
	winIn          map[string]Vec   // inputs of the window's first cycle, when strengthen allocated them
	sigA, sigB     []int            // each model's sequential state (StateSignals)
}

// newMiter blasts both programs into one graph and sets up the base
// path, plus the window under induct. b's free inputs that a also
// drives share a's variables; inputs only b has stay at their previous
// values (the harness never sets them).
func newMiter(g *AIG, a, b *sim.Program, opts Options, induct bool) (*miter, error) {
	ma, err := newModelShared(g, a, opts)
	if err != nil {
		return nil, err
	}
	mb, err := newModelShared(g, b, opts)
	if err != nil {
		return nil, err
	}
	u := &miter{g: g, ma: ma, mb: mb}
	if u.sta, err = ma.InitState(); err != nil {
		return nil, err
	}
	if u.stb, err = mb.InitState(); err != nil {
		return nil, err
	}
	u.resetA, u.resetB = u.sta, u.stb
	if induct {
		u.winA, u.winB = []*State{ma.FreeState()}, []*State{mb.FreeState()}
		u.sigA, u.sigB = ma.StateSignals(), mb.StateSignals()
	}
	return u, nil
}

// advance steps the base path or the window one harness cycle under
// fresh shared inputs and returns "some output differs".
func (u *miter) advance(window bool) (Lit, error) {
	sta, stb := u.sta, u.stb
	if window {
		sta, stb = u.winA[len(u.winA)-1], u.winB[len(u.winB)-1]
	}
	inA := u.ma.FreshInputs()
	if window && len(u.winA) == 1 && u.winIn != nil {
		inA = u.winIn
	}
	sta, err := u.ma.Step(sta, inA)
	if err != nil {
		return False, err
	}
	if stb, err = u.mb.Step(stb, u.sharedInputs(inA)); err != nil {
		return False, err
	}
	g := u.g
	bad := False
	diffs := make([]Lit, len(u.ma.Outputs()))
	for i, p := range u.ma.Outputs() {
		av := u.ma.OutputVec(sta, i)
		bv, ok := u.mb.OutputVecByName(stb, p.Name)
		if !ok {
			bv = g.ConstVec(0, len(av))
		}
		w := len(av)
		if len(bv) > w {
			w = len(bv)
		}
		d := g.EqVec(g.Resize(av, w), g.Resize(bv, w)).Not()
		diffs[i] = d
		bad = g.Or(bad, d)
	}
	if window {
		u.winA, u.winB = append(u.winA, sta), append(u.winB, stb)
	} else {
		u.sta, u.stb, u.diffs = sta, stb, diffs
		u.in = append(u.in, inA)
	}
	return bad, nil
}

// sharedInputs gives b a's input variables for every free input b also
// has; b's other inputs hold their previous values (the harness never
// sets them).
func (u *miter) sharedInputs(inA map[string]Vec) map[string]Vec {
	inB := map[string]Vec{}
	for _, p := range u.mb.FreeInputs() {
		if v, ok := inA[p.Name]; ok {
			inB[p.Name] = v
		}
	}
	return inB
}

// distinct is "window product states i and j differ" in either model.
func (u *miter) distinct(i, j int) Lit {
	return u.g.Or(
		stateDiff(u.g, u.ma, u.winA[i], u.winA[j], u.sigA),
		stateDiff(u.g, u.mb, u.winB[i], u.winB[j], u.sigB),
	)
}

// stateDiff is the "these two window snapshots differ" literal over one
// model's sequential state: some register or memory word among sigs
// differs between si and sj.
func stateDiff(g *AIG, m *Model, si, sj *State, sigs []int) Lit {
	d := False
	for _, idx := range sigs {
		if m.sigs[idx].IsMem {
			for wd := range si.mems[idx] {
				d = g.Or(d, g.EqVec(si.mems[idx][wd], sj.mems[idx][wd]).Not())
			}
			continue
		}
		d = g.Or(d, g.EqVec(si.vals[idx], sj.vals[idx]).Not())
	}
	return d
}

// cex decodes the SAT model of a base-path failure at cycle t into
// concrete per-cycle stimulus and names one diverging output.
func (u *miter) cex(s *Solver, ti *IncTseitin, t int) *Counterexample {
	g := u.g
	assign := func(n uint32) bool { return s.Value(ti.Var(n)) }
	cex := &Counterexample{Cycle: t}
	frozen := u.ma.FrozenInputs()
	for _, in := range u.in {
		vals := map[string]uint64{}
		for name, vec := range in {
			bits := g.Eval(assign, vec)
			var v uint64
			for i, b := range bits {
				if b {
					v |= 1 << uint(i)
				}
			}
			vals[name] = v
		}
		for name, v := range frozen {
			vals[name] = v
		}
		cex.Inputs = append(cex.Inputs, vals)
	}
	for i, d := range u.diffs {
		if got := g.Eval(assign, []Lit{d}); got[0] {
			cex.Signal = u.ma.Outputs()[i].Name
			break
		}
	}
	return cex
}

// ReplayCex drives both sources through fresh simulator instances on the
// given backend under the counterexample's stimulus — the differential
// reset protocol, then the recorded vectors — and reports whether any
// output diverged and at which cycle. A formal SAT verdict is only
// trusted once this returns true; the agreement oracles assert it.
func ReplayCex(srcA, srcB, top, clock string, cex *Counterexample, backend sim.Backend) (bool, int, error) {
	sA, err := sim.CompileAndNewBackend(srcA, top, backend)
	if err != nil {
		return false, 0, fmt.Errorf("formal: replay: %w", err)
	}
	sB, err := sim.CompileAndNewBackend(srcB, top, backend)
	if err != nil {
		return true, 0, nil // b does not even elaborate: divergent by definition
	}
	hA, hB := sim.NewHarness(sA, clock), sim.NewHarness(sB, clock)
	if err := hA.ApplyReset(ResetCycles); err != nil {
		return false, 0, err
	}
	if err := hB.ApplyReset(ResetCycles); err != nil {
		return true, 0, nil
	}
	for cyc, in := range cex.Inputs {
		inA, inB := map[string]uint64{}, map[string]uint64{}
		for k, v := range in {
			if sA.Has(k) {
				inA[k] = v
			}
			if sB.Has(k) {
				inB[k] = v
			}
		}
		outA, errA := hA.Cycle(inA)
		outB, errB := hB.Cycle(inB)
		if (errA == nil) != (errB == nil) {
			return true, cyc, nil
		}
		if errA != nil {
			return false, 0, fmt.Errorf("formal: replay: both died at cycle %d: %v", cyc, errA)
		}
		for name, v := range outA {
			if outB[name] != v {
				return true, cyc, nil
			}
		}
	}
	return false, 0, nil
}
