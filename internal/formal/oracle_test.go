package formal_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// enumBitBudget caps the stimulus bits an enumerated pair may need in
// total (free input bits per cycle × depth): 2^10 lanes per side.
const enumBitBudget = 10

// TestEquivMatchesEnumeration checks both equivalence entries against
// ground truth instead of against each other. Every dataset (golden,
// golden) and (golden, functional mutant) pair small enough to enumerate
// has every input sequence of its depth driven through sim.Batch under
// the formal protocol — ApplyReset(sim.ResetCycles), the reset held
// deasserted, outputs compared on the golden's ports with ports the
// mutant lacks reading zero. BMCEquivOpts must then report Equivalent
// at Depth = k exactly when no sequence diverges, and otherwise refute
// at the earliest divergence cycle of any sequence with a counterexample
// that replays there; InductionEquivOpts must refute at that same depth
// and may never claim an unbounded proof for a pair some sequence
// distinguishes.
func TestEquivMatchesEnumeration(t *testing.T) {
	var checked, refuted, equivalent, unbounded, unsupported int
	for _, m := range dataset.All() {
		golden, err := sim.CompileSource(m.Source, m.Top, sim.BackendCompiled)
		if err != nil {
			t.Fatal(err)
		}
		free, bits := freeInputs(golden.Design(), m.Clock)
		depth := formal.DefaultBMCDepth
		if bits > 0 && enumBitBudget/bits < depth {
			depth = enumBitBudget / bits
		}
		if depth == 0 {
			continue
		}
		type source struct{ name, src string }
		mutants := []source{{m.Name + "/self", m.Source}}
		for _, c := range faultgen.FunctionalClasses() {
			for _, f := range faultgen.Generate(m, c) {
				mutants = append(mutants, source{f.ID, f.Source})
			}
		}
		for _, mu := range mutants {
			mutant, err := sim.CompileSource(mu.src, m.Top, sim.BackendCompiled)
			if err != nil {
				continue // a functional fault the front end rejects
			}
			bmc, err := formal.BMCEquivOpts(golden, mutant, m.Clock, depth, formal.Options{})
			if errors.Is(err, formal.ErrUnsupported) {
				unsupported++
				continue
			}
			if err != nil {
				t.Fatalf("%s: bmc: %v", mu.name, err)
			}
			ind, err := formal.InductionEquivOpts(golden, mutant, m.Clock, depth, formal.Options{})
			if err != nil {
				t.Fatalf("%s: induction: %v", mu.name, err)
			}
			div, err := earliestDivergence(golden, mutant, m.Clock, free, bits, depth)
			if err != nil {
				t.Fatalf("%s: enumeration: %v", mu.name, err)
			}
			checked++
			if div < 0 {
				equivalent++
				if !bmc.Equivalent || bmc.Depth != depth {
					t.Errorf("%s: no sequence of depth %d diverges, bmc says eq=%v depth=%d", mu.name, depth, bmc.Equivalent, bmc.Depth)
				}
				if !ind.Equivalent || (!ind.Unbounded && ind.Depth != depth) {
					t.Errorf("%s: no sequence of depth %d diverges, induction says eq=%v unbounded=%v depth=%d",
						mu.name, depth, ind.Equivalent, ind.Unbounded, ind.Depth)
				}
				if ind.Unbounded {
					unbounded++
				}
				continue
			}
			refuted++
			for _, r := range []struct {
				entry string
				res   formal.EquivResult
			}{{"bmc", bmc}, {"induction", ind}} {
				if r.res.Equivalent {
					t.Errorf("%s: a sequence diverges at cycle %d, %s says equivalent (unbounded=%v)", mu.name, div, r.entry, r.res.Unbounded)
					continue
				}
				if r.res.Depth != div {
					t.Errorf("%s: earliest divergence at cycle %d, %s refutes at depth %d", mu.name, div, r.entry, r.res.Depth)
					continue
				}
				ok, cyc, err := formal.ReplayCex(m.Source, mu.src, m.Top, m.Clock, r.res.Cex, sim.BackendCompiled)
				if err != nil || !ok || cyc != div {
					t.Errorf("%s: %s cex replay diverged=%v at cycle %d (want %d), err=%v", mu.name, r.entry, ok, cyc, div, err)
				}
			}
		}
	}
	t.Logf("%d pairs checked: %d refuted at the enumerated depth, %d equivalent to depth (%d unbounded); %d unsupported",
		checked, refuted, equivalent, unbounded, unsupported)
	if refuted == 0 || equivalent == 0 {
		t.Fatal("the oracle must see both verdicts")
	}
}

// TestUnboundedSurvivesDeepBMC checks every all-time proof over the
// dataset without the inductive step: each (golden, golden) and (golden,
// functional mutant) pair that InductionEquivOpts proves Unbounded at
// the conventional depth k must stay equivalent under plain BMC to
// depth 3k+2. Each pair's signal correspondence must also come out the
// same with and without the random run that prunes its candidates.
func TestUnboundedSurvivesDeepBMC(t *testing.T) {
	const k = formal.DefaultBMCDepth
	var pairs, claims int
	for _, m := range dataset.All() {
		golden, err := sim.CompileSource(m.Source, m.Top, sim.BackendCompiled)
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]string{m.Name + "/self": m.Source}
		for _, c := range faultgen.FunctionalClasses() {
			for _, f := range faultgen.Generate(m, c) {
				sources[f.ID] = f.Source
			}
		}
		for id, src := range sources {
			mutant, err := sim.CompileSource(src, m.Top, sim.BackendCompiled)
			if err != nil {
				continue // a functional fault the front end rejects
			}
			pairs++
			ind, err := formal.InductionEquivOpts(golden, mutant, m.Clock, k, formal.Options{})
			if errors.Is(err, formal.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: induction: %v", id, err)
			}
			filtered, err := formal.Correspondence(golden, mutant, m.Clock, true)
			if err != nil {
				t.Fatalf("%s: correspondence: %v", id, err)
			}
			if full, _ := formal.Correspondence(golden, mutant, m.Clock, false); !reflect.DeepEqual(filtered, full) {
				t.Errorf("%s: the random run changed the proved correspondence: %v, without it %v", id, filtered, full)
			}
			if !ind.Unbounded {
				continue
			}
			claims++
			bmc, err := formal.BMCEquivOpts(golden, mutant, m.Clock, 3*k+2, formal.Options{})
			if err != nil {
				t.Fatalf("%s: bmc: %v", id, err)
			}
			if !bmc.Equivalent {
				t.Errorf("UNSOUND: %s proved unbounded at window %d, BMC refutes at depth %d", id, ind.Depth, bmc.Depth)
			}
		}
	}
	t.Logf("%d pairs, %d unbounded claims checked to depth %d", pairs, claims, 3*k+2)
	if claims == 0 {
		t.Fatal("no unbounded claim to check")
	}
}

// freeInputs lists the inputs the formal protocol drives — every input
// but the clock and the held-deasserted reset — and their total width.
func freeInputs(d *sim.Design, clock string) (free []sim.PortInfo, bits int) {
	rst, _ := sim.FindReset(d)
	for _, p := range d.Inputs() {
		if p.Name != clock && p.Name != rst {
			free = append(free, p)
			bits += p.Width
		}
	}
	return free, bits
}

// earliestDivergence drives every input sequence of the given depth
// (bits free input bits per cycle) through one batch lane per sequence
// on each side and returns the earliest cycle at which any lane's
// outputs differ, or -1.
func earliestDivergence(a, b *sim.Program, clock string, free []sim.PortInfo, bits, depth int) (int, error) {
	lanes := 1 << (bits * depth)
	ba, err := sim.NewBatch(a, lanes, clock)
	if err != nil {
		return 0, err
	}
	bb, err := sim.NewBatch(b, lanes, clock)
	if err != nil {
		return 0, err
	}
	if err := ba.ApplyReset(sim.ResetCycles); err != nil {
		return 0, err
	}
	if err := bb.ApplyReset(sim.ResetCycles); err != nil {
		return 0, err
	}
	// Ports the mutant lacks read zero on its side.
	outB := map[string]int{}
	for i, p := range b.Design().Outputs() {
		outB[p.Name] = i
	}
	var ra, rb []uint64
	for t := 0; t < depth; t++ {
		if err := ba.Cycle(enumRows(ba, a.Design(), free, bits, t)); err != nil {
			return 0, err
		}
		if err := bb.Cycle(enumRows(bb, b.Design(), free, bits, t)); err != nil {
			return 0, err
		}
		for k := 0; k < lanes; k++ {
			if ba.Err(k) != nil || bb.Err(k) != nil {
				return 0, fmt.Errorf("lane %d at cycle %d: %v / %v", k, t, ba.Err(k), bb.Err(k))
			}
			ra, rb = ba.OutputRow(k, ra), bb.OutputRow(k, rb)
			for i, p := range a.Design().Outputs() {
				var w uint64
				if j, ok := outB[p.Name]; ok {
					w = rb[j]
				}
				if ra[i] != w {
					return t, nil
				}
			}
		}
	}
	return -1, nil
}

// enumRows lays cycle t of every lane's input sequence out in bt's row
// layout: the free inputs from the lane's sequence bits, the reset held
// at its deasserted value, and any other input at zero, the value it
// holds when never driven.
func enumRows(bt *sim.Batch, d *sim.Design, free []sim.PortInfo, bits, t int) [][]uint64 {
	rst, deassert := sim.FindResetDeassert(d)
	col := map[string]int{}
	ports := bt.Ports()
	for i, p := range ports {
		col[p.Name] = i
	}
	rows := make([][]uint64, bt.Lanes())
	for k := range rows {
		row := make([]uint64, len(ports))
		if i, ok := col[rst]; ok {
			row[i] = deassert
		}
		seq := uint64(k) >> (t * bits)
		for _, p := range free {
			if i, ok := col[p.Name]; ok {
				row[i] = seq & (1<<p.Width - 1)
			}
			seq >>= p.Width
		}
		rows[k] = row
	}
	return rows
}
