package rtlgen

// Coverage-directed fuzzing mode: instead of diffing backends under
// blind random stimulus, CoverSweep measures how much of each generated
// design's structure the stimulus actually reaches, compares random
// against coverage-directed generation at an equal cycle budget, and
// keeps the (design, corpus) pairs that raise cumulative generator-shape
// coverage — a progress metric for the differential fuzzer, which
// otherwise cannot tell whether seed 10000 still exercises anything seed
// 100 did not.

import (
	"fmt"
	"strings"

	"uvllm/internal/cover"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// CoverRun is the coverage evaluation of one generated design.
type CoverRun struct {
	Design      *Design
	RandomPct   float64     // structural coverage of uniform random stimulus
	DirectedPct float64     // structural coverage of directed stimulus, same budget
	Corpus      *uvm.Corpus // coverage-raising snippets the directed run saved
	NewPoints   int         // shape points this design added to the cumulative set
	Kept        bool        // NewPoints > 0: the design joins the corpus
}

// Shapes is the cumulative set of generator-shape points that the kept
// designs' directed runs hit. The generator's deterministic naming makes
// structurally analogous points — "p3.s1.then", "w2[5]" — comparable
// across designs, whose coverage maps each count over their own universe.
type Shapes map[cover.Point]bool

// fresh returns the points m hits that s does not hold yet.
func (s Shapes) fresh(m *cover.Map) []cover.Point {
	var out []cover.Point
	for _, p := range m.Points() {
		if !s[p] && m.Count(p) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// CoverSweep generates designs for seeds seed..seed+n-1 and evaluates
// each with both stimulus generators at an equal cycle budget, the
// directed one scoring `lanes` candidates per round on the batch scorer
// (one when lanes <= 1). Designs are scored against the cumulative
// Shapes: a design is kept when its directed run hits shapes no kept
// design has hit before, so the retained set grows only while the design
// space still yields new structure. The cumulative set is returned
// alongside the runs.
func CoverSweep(seed int64, n, cycles, lanes int) ([]CoverRun, Shapes, error) {
	cum := Shapes{}
	runs, err := coverSweepInto(cum, seed, n, cycles, lanes)
	return runs, cum, err
}

// coverSweepInto runs the sweep against an existing cumulative set, so
// repeated shapes stop being kept once the set holds them.
func coverSweepInto(cum Shapes, seed int64, n, cycles, lanes int) ([]CoverRun, error) {
	runs := make([]CoverRun, 0, n)
	for i := 0; i < n; i++ {
		d := Generate(seed + int64(i))
		run, err := coverOne(d, cycles, lanes)
		if err != nil {
			return runs, fmt.Errorf("seed %d: %w", d.Seed, err)
		}
		fresh := cum.fresh(run.dirMap)
		run.CoverRun.NewPoints = len(fresh)
		run.CoverRun.Kept = len(fresh) > 0
		for _, p := range fresh {
			cum[p] = true
		}
		runs = append(runs, run.CoverRun)
	}
	return runs, nil
}

type coverOneResult struct {
	CoverRun
	dirMap *cover.Map
}

func coverOne(d *Design, cycles, lanes int) (coverOneResult, error) {
	var out coverOneResult
	out.Design = d
	p, err := sim.CompileSource(d.Source, d.Top, sim.BackendCompiled)
	if err != nil {
		return out, err
	}
	cfg := uvm.StimConfig{Clock: d.Clock, Cycles: cycles, Seed: d.Seed, Lanes: lanes}
	mr, err := uvm.CoverageRandom(p, cfg)
	if err != nil {
		return out, err
	}
	md, corpus, err := uvm.CoverageDirected(p, cfg)
	if err != nil {
		return out, err
	}
	out.RandomPct = mr.Percent()
	out.DirectedPct = md.Percent()
	out.Corpus = corpus
	out.dirMap = md
	return out, nil
}

// FormatCoverSweep renders a sweep as a table plus the cumulative
// summary line the CLI prints.
func FormatCoverSweep(runs []CoverRun, cum Shapes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-20s %9s %9s %6s %5s\n", "seed", "flavor", "random%", "direct%", "new", "kept")
	kept := 0
	for _, r := range runs {
		k := "-"
		if r.Kept {
			k = "keep"
			kept++
		}
		fmt.Fprintf(&b, "%-14d %-20s %9.1f %9.1f %6d %5s\n",
			r.Design.Seed, r.Design.Flavor, r.RandomPct, r.DirectedPct, r.NewPoints, k)
	}
	fmt.Fprintf(&b, "kept %d/%d designs; cumulative shape coverage %d points hit\n", kept, len(runs), len(cum))
	return b.String()
}
