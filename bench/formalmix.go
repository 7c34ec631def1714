package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
)

// Formal checks run at the conventional depth under a conflict budget
// large enough for every dataset proof but the deep multiplier cones.
//
// The pairs are the dataset's alone. Generated (rtlgen) designs were
// tried and dropped: forty of them, each with its first functional
// mutant, took 5 to 66 s per pass depending on the seed even at the
// rtlgen oracle's 500-conflict budget, so one slow draw would swamp any
// regression bound.
const (
	formalDepth     = 8
	formalConflicts = 50000
)

// equivPair is one equivalence check: a golden design and its mutant,
// compiled in set-up.
type equivPair struct {
	name                   string
	golden, mutant         string
	top, clock             string
	goldenProg, mutantProg *sim.Program
}

// checkOutcome is one check's verdict.
type checkOutcome struct {
	verdict string // sat, unsat, budget, unsupported, error
	res     formal.EquivResult
	err     error
	dur     time.Duration
}

// runFormalMix checks every (golden, functional mutant) pair of the
// dataset through k-induction. One op is one check.
func runFormalMix(rc *runCtx) error {
	pairs, err := formalPairs(rc.seed)
	if err != nil {
		return err
	}
	pairs = trim(rc, pairs)
	if rc.ready() {
		return nil
	}
	var first []checkOutcome
	var digest string
	rc.startTimed()
	for p := 0; !rc.timeUp(); p++ {
		t0 := time.Now()
		outs := formalPass(pairs, nil)
		rc.pass(t0)
		for _, o := range outs {
			rc.op(o.dur, o.opErr())
		}
		d := formalDigest(pairs, outs)
		rc.check(p == 0 || d == digest, "pass %d verdict digest %s differs from pass 0 (%s)", p, d, digest)
		if p == 0 {
			first, digest = outs, d
		}
	}
	rc.stopTimed(rc.out.Attempted)
	passMed := median(rc.out.Passes)
	rc.out.E2E["throughput_per_s"] = float64(len(pairs)) / passMed
	rc.out.Digests["verdicts"] = digest
	formalCounts(rc, first)
	// Every refutation must replay on the simulator at its predicted
	// cycle (untimed).
	for i, o := range first {
		if o.verdict != "sat" {
			continue
		}
		pr := pairs[i]
		div, cyc, err := formal.ReplayCex(pr.golden, pr.mutant, pr.top, pr.clock, o.res.Cex, sim.BackendCompiled)
		rc.check(err == nil && div && cyc == o.res.Cex.Cycle,
			"%s: counterexample does not replay (diverged=%v at %d, predicted %d, err=%v)", pr.name, div, cyc, o.res.Cex.Cycle, err)
	}
	formalLayers(rc, first)

	if !rc.trace {
		return nil
	}
	tr := obs.NewTracer("")
	t0 := time.Now()
	outs := formalPass(pairs, tr)
	traced := time.Since(t0).Seconds()
	td := formalDigest(pairs, outs)
	rc.check(td == digest, "traced pass verdict digest %s differs from untraced %s", td, digest)
	formalLayers(rc, outs)
	return rc.finishTrace(fromObs("checks", tr.Spans()), traced, median(rc.out.RawPasses))
}

// formalPairs builds the workload's pairs, every validated functional
// fault of every dataset module, in seed-shuffled order.
func formalPairs(seed int64) ([]equivPair, error) {
	cache := sim.NewCache()
	var pairs []equivPair
	for _, m := range dataset.All() {
		for _, c := range faultgen.FunctionalClasses() {
			for _, f := range faultgen.Generate(m, c) {
				pairs = append(pairs, equivPair{name: f.ID, golden: m.Source, mutant: f.Source, top: m.Top, clock: m.Clock})
			}
		}
	}
	kept := pairs[:0]
	for _, p := range pairs {
		var err error
		if p.goldenProg, err = cache.Compile(p.golden, p.top, sim.BackendCompiled); err != nil {
			return nil, fmt.Errorf("%s: golden does not compile: %w", p.name, err)
		}
		if p.mutantProg, err = cache.Compile(p.mutant, p.top, sim.BackendCompiled); err != nil {
			continue // a functional fault the linter catches before elaboration
		}
		kept = append(kept, p)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
	return kept, nil
}

// formalPass checks every pair once. With a tracer, each check is a
// root "check" span over a "formal.induction" span that the solver's
// per-depth spans nest under.
func formalPass(pairs []equivPair, tr *obs.Tracer) []checkOutcome {
	outs := make([]checkOutcome, len(pairs))
	for i, p := range pairs {
		root := tr.Start("check")
		sp := root.Child("formal.induction")
		t0 := time.Now()
		res, err := formal.InductionEquivOpts(p.goldenProg, p.mutantProg, p.clock, formalDepth,
			formal.Options{MaxConflicts: formalConflicts, Span: sp})
		outs[i] = checkOutcome{res: res, err: err, dur: time.Since(t0)}
		sp.End()
		root.End()
		switch {
		case errors.Is(err, formal.ErrBudget):
			outs[i].verdict = "budget"
		case errors.Is(err, formal.ErrUnsupported):
			outs[i].verdict = "unsupported"
		case err != nil:
			outs[i].verdict = "error"
		case res.Equivalent:
			outs[i].verdict = "unsat"
		default:
			outs[i].verdict = "sat"
		}
	}
	return outs
}

// opErr is the op failure: any error but the documented budget and
// unsupported outcomes.
func (o checkOutcome) opErr() error {
	if o.verdict == "error" {
		return o.err
	}
	return nil
}

// formalDigest hashes each pair's verdict, depth, unbounded flag,
// counterexample location and solver work.
func formalDigest(pairs []equivPair, outs []checkOutcome) string {
	h := sha256.New()
	for i, o := range outs {
		cex := "-"
		if o.res.Cex != nil {
			cex = fmt.Sprintf("%d/%s/%d", o.res.Cex.Cycle, o.res.Cex.Signal, o.res.Cex.Weight())
		}
		fmt.Fprintf(h, "%s|%s|%d|%v|%s|%d|%d\n", pairs[i].name, o.verdict, o.res.Depth, o.res.Unbounded,
			cex, o.res.Stats.Conflicts(), o.res.Stats.AIGNodes)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// formalCounts records the exact verdict counts of one pass.
func formalCounts(rc *runCtx, outs []checkOutcome) {
	rc.out.Counts["pairs"] = len(outs)
	for _, o := range outs {
		rc.out.Counts["verdict."+o.verdict]++
		if o.res.Unbounded {
			rc.out.Counts["verdict.unbounded"]++
		}
	}
}

// formalLayers sets the solver-work counts and verdict time shares of
// one pass.
func formalLayers(rc *runCtx, outs []checkOutcome) {
	var conflicts, props, solves, nodes, unsat, unbounded, budget int
	var satT, unsatT, total time.Duration
	for _, o := range outs {
		total += o.dur
		conflicts += o.res.Stats.Conflicts()
		nodes += o.res.Stats.AIGNodes
		solves += len(o.res.Stats.Solves)
		for _, s := range o.res.Stats.Solves {
			props += s.Propagations
		}
		switch o.verdict {
		case "sat":
			satT += o.dur
		case "unsat":
			unsatT += o.dur
			unsat++
			unbounded += b2i(o.res.Unbounded)
		case "budget":
			budget++
		}
	}
	n := float64(max(len(outs), 1))
	rc.out.Layer["formal.conflicts_per_op"] = float64(conflicts) / n
	rc.out.Layer["formal.propagations_per_op"] = float64(props) / n
	rc.out.Layer["formal.solves_per_op"] = float64(solves) / n
	rc.out.Layer["formal.aig_nodes_per_op"] = float64(nodes) / n
	rc.out.Layer["formal.unbounded_ratio"] = ratio(int64(unbounded), int64(unsat))
	rc.out.Layer["formal.budget_ratio"] = float64(budget) / n
	if total > 0 {
		rc.out.Layer["formal.sat_time_pct"] = 100 * float64(satT) / float64(total)
		rc.out.Layer["formal.unsat_time_pct"] = 100 * float64(unsatT) / float64(total)
	}
}
