package formal

import (
	"math/rand"

	"uvllm/internal/sim"
)

// Signal correspondence (C. A. J. van Eijk, "Sequential equivalence
// checking based on structural similarities", IEEE TCAD 2000): the
// largest set of equalities between bits of the two models' same-named
// signals that holds after reset and is preserved by every cycle,
// assuming only itself. Such a set holds in every reachable state, so
// the miter's induction window may start from a free state that
// satisfies it. Plain k-induction has no such fact: its hypotheses say
// only that the outputs agreed so far, never that two registers or two
// unobserved memory words agree, so an inert mutant of a design with
// hidden state stays bounded at every window. The window instead starts
// from one shared free state in which b's corresponding bits are a's
// variables, and structural hashing folds the two unrollings together
// wherever the designs agree — most inert mutants then close at window
// 1 without a solve.

// corrSimCycles is the length of the random run that prunes candidates
// before the SAT refinement.
const corrSimCycles = 32

// corrWord is one candidate word — a signal of a (word -1) or one of its
// memory words, paired with the same-named word of b — and the mask of
// its bits still in correspondence.
type corrWord struct {
	sa, sb int // arena indices in a and b
	word   int
	mask   uint64
}

// bit returns bit i of the word in a state of the model whose arena
// index is sig.
func (c corrWord) bit(st *State, sig, i int) Lit {
	if c.word < 0 {
		return st.vals[sig][i]
	}
	return st.mems[sig][c.word][i]
}

// strengthen proves the signal correspondence and restarts the window
// from the shared free state it licenses. It runs once, at the first
// inductive-step round, under an induct_step span, and returns its
// solver calls for the check's stats. Its inputs become the window's
// first-cycle inputs, so that cycle folds onto the last refinement
// round. A refinement that exhausts the conflict budget leaves the
// independent window in place; the only error is cancellation.
func (u *miter) strengthen(opts Options) ([]SolveStats, error) {
	cs := u.candidates()
	if len(cs) == 0 {
		return nil, nil
	}
	sp := opts.Span.Child("induct_step")
	defer sp.End()
	sp.SetArg("window", "0")
	u.winIn = u.ma.FreshInputs()
	proved, solves, err := u.refine(u.simulate(cs), u.winIn, opts)
	if len(proved) > 0 {
		u.winB[0] = share(u.winB[0], u.winA[0], proved)
	}
	return solves, err
}

// refine keeps the largest inductive subset of the candidates: it steps
// both models one cycle under the inputs in, from the shared free state
// of the current set, asks whether some candidate bit differs
// afterwards, drops every bit the solver's model violates and repeats
// until the answer is UNSAT or the question folds to constant false.
// Every dropped bit lies outside every inductive subset — the model's
// start state satisfies all current candidates — so the result does not
// depend on what simulate pruned first. It returns nil, never a partial
// set, when a solve exhausts its budget or a step leaves the blastable
// subset.
func (u *miter) refine(cs []corrWord, in map[string]Vec, opts Options) ([]corrWord, []SolveStats, error) {
	if len(cs) == 0 {
		return nil, nil, nil
	}
	// a's side does not depend on the candidates: step it once.
	nextA, err := u.ma.Step(u.winA[0], in)
	if err != nil {
		return nil, nil, nil
	}
	inB := u.sharedInputs(in)
	rng := rand.New(rand.NewSource(1))
	random := func(uint32) uint64 { return rng.Uint64() }
	g := u.g
	var s *Solver
	var ti *IncTseitin
	var solves []SolveStats
	for {
		// Rounds that solve without conflicts never poll the solver's
		// stop check, so cancellation is checked here too.
		if err := opts.cancelled(0); err != nil {
			return nil, solves, err
		}
		nextB, err := u.mb.Step(share(u.winB[0], u.winA[0], cs), inB)
		if err != nil {
			return nil, solves, nil
		}
		var diffs []Lit
		differs := False
		for _, c := range cs {
			for i := 0; c.mask>>i != 0; i++ {
				if c.mask>>i&1 == 1 {
					d := g.Xor(c.bit(nextA, c.sa, i), c.bit(nextB, c.sb, i))
					diffs = append(diffs, d)
					differs = g.Or(differs, d)
				}
			}
		}
		if differs == False {
			return cs, solves, nil
		}
		// 64 random assignments first: every assignment of the graph's
		// variables is a start state that satisfies the current set, so
		// a bit that differs under one is outside every inductive subset.
		if dropDiffering(cs, g.evalWords(random, diffs)) {
			if cs = keepNonzero(cs); len(cs) == 0 {
				return nil, solves, nil
			}
			continue
		}
		if s == nil {
			s = opts.solver()
			ti = NewIncTseitin(g, s)
		}
		sat := s.SolveAssuming(ti.Lit(differs))
		solves = append(solves, s.CallStats())
		if s.Exhausted() {
			return nil, solves, opts.cancelled(0)
		}
		if !sat {
			return cs, solves, nil
		}
		model := func(n uint32) uint64 {
			if s.Value(ti.Var(n)) {
				return ^uint64(0)
			}
			return 0
		}
		if !dropDiffering(cs, g.evalWords(model, diffs)) {
			return nil, solves, nil // differs holds in the model, so this cannot happen
		}
		if cs = keepNonzero(cs); len(cs) == 0 {
			return nil, solves, nil
		}
	}
}

// dropDiffering clears every candidate bit whose difference literal —
// one per bit, in candidate order — is set under some assignment, and
// reports whether it cleared any.
func dropDiffering(cs []corrWord, diffs []uint64) bool {
	k, dropped := 0, false
	for j := range cs {
		c := &cs[j]
		for i := 0; c.mask>>i != 0; i++ {
			if c.mask>>i&1 == 1 {
				if diffs[k] != 0 {
					c.mask &^= 1 << i
					dropped = true
				}
				k++
			}
		}
	}
	return dropped
}

// candidates pairs every non-input signal of a — register, memory word,
// or combinational net — with b's same-named, same-shape signal and keeps
// the bits whose post-reset constants agree. Combinational nets belong
// in the set even though every cycle recomputes them: a process that
// writes one under guards (a case statement, say) muxes against its
// previous value even where the guards are exhaustive, so an unshared
// start value keeps the two unrollings apart.
func (u *miter) candidates() []corrWord {
	input := map[string]bool{}
	for _, p := range u.ma.d.Inputs() {
		input[p.Name] = true
	}
	var cs []corrWord
	for sa, va := range u.ma.sigs {
		sb, ok := u.mb.d.SignalIndex(va.Name)
		if !ok || input[va.Name] {
			continue
		}
		vb := u.mb.sigs[sb]
		if vb.Width != va.Width || vb.IsMem != va.IsMem || vb.Depth != va.Depth {
			continue
		}
		if !va.IsMem {
			cs = appendCand(cs, corrWord{sa: sa, sb: sb, word: -1}, u.resetA.vals[sa], u.resetB.vals[sb])
			continue
		}
		for w := 0; w < va.Depth; w++ {
			cs = appendCand(cs, corrWord{sa: sa, sb: sb, word: w}, u.resetA.mems[sa][w], u.resetB.mems[sb][w])
		}
	}
	return cs
}

// appendCand appends c with the bits on which the constant reset values
// a and b agree, if there are any.
func appendCand(cs []corrWord, c corrWord, a, b Vec) []corrWord {
	for i := range a {
		if a[i] == b[i] {
			c.mask |= 1 << i
		}
	}
	if c.mask == 0 {
		return cs
	}
	return append(cs, c)
}

// simulate runs both programs from reset under the formal protocol —
// the reset held deasserted, fixed-seed random stimulus shared by input
// name — and clears every candidate bit on which the two runs disagree
// after some cycle. It only drops equalities that are false in a
// reachable state, so it saves refinement rounds without changing what
// the refinement proves; a run that cannot start or stops early keeps
// what it has.
func (u *miter) simulate(cs []corrWord) []corrWord {
	ia, err := u.ma.prog.NewInstance()
	if err != nil {
		return cs
	}
	ib, err := u.mb.prog.NewInstance()
	if err != nil {
		return cs
	}
	ha, hb := sim.NewHarness(ia, u.ma.clock), sim.NewHarness(ib, u.mb.clock)
	if ha.ApplyReset(ResetCycles) != nil || hb.ApplyReset(ResetCycles) != nil {
		return cs
	}
	freeB := map[string]bool{}
	for _, p := range u.mb.free {
		freeB[p.Name] = true
	}
	frozenA, frozenB := u.ma.FrozenInputs(), u.mb.FrozenInputs()
	rng := rand.New(rand.NewSource(1))
	for cyc := 0; cyc < corrSimCycles && len(cs) > 0; cyc++ {
		inA, inB := map[string]uint64{}, map[string]uint64{}
		for _, p := range u.ma.free {
			v := rng.Uint64()
			if w := vecW(p.Width); w < 64 {
				v &= 1<<w - 1
			}
			inA[p.Name] = v
			if freeB[p.Name] {
				inB[p.Name] = v
			}
		}
		for n, v := range frozenA {
			inA[n] = v
		}
		for n, v := range frozenB {
			inB[n] = v
		}
		if _, err := ha.Cycle(inA); err != nil {
			break
		}
		if _, err := hb.Cycle(inB); err != nil {
			break
		}
		for j := range cs {
			c := &cs[j]
			name := u.ma.sigs[c.sa].Name
			if c.word < 0 {
				c.mask &^= ia.Get(name) ^ ib.Get(name)
			} else {
				c.mask &^= ia.GetMem(name, c.word) ^ ib.GetMem(name, c.word)
			}
		}
		cs = keepNonzero(cs)
	}
	return cs
}

// keepNonzero drops the words with no bit left in correspondence.
func keepNonzero(cs []corrWord) []corrWord {
	kept := cs[:0]
	for _, c := range cs {
		if c.mask != 0 {
			kept = append(kept, c)
		}
	}
	return kept
}

// share returns b's state stB with every bit of cs replaced by a's
// literal for it in stA.
func share(stB, stA *State, cs []corrWord) *State {
	st := stB.clone()
	for _, c := range cs {
		dst := st.vals[c.sb]
		if c.word >= 0 {
			dst = st.mems[c.sb][c.word]
		}
		for i := 0; c.mask>>i != 0; i++ {
			if c.mask>>i&1 == 1 {
				dst[i] = c.bit(stA, c.sa, i)
			}
		}
	}
	return st
}
