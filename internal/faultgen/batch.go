package faultgen

// Lane-parallel mutant observation. Classifying a fault means running
// the faulty source under the golden testbench; one stimulus seed can
// miss a fault another catches, and re-running the same compiled mutant
// per seed pays the full per-instance cost each time. ObserveLanes
// compiles the mutant once and drives K seeds as K lanes of one
// sim.Batch — fused sweeps, one schedule decode — scoring each lane
// against the memoized golden trace exactly as the sequential
// environment would.

import (
	"fmt"

	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// ObserveLanes runs the faulty source under the golden UVM stimulus for
// every seed at once, one batch lane per seed, and returns the per-seed
// pass rates. Each lane replays the exact protocol of the sequential
// observe path: a 2-cycle reset phase when the design has a reset, then
// n random vectors (ResetEvery 50) materialized from that lane's seed,
// scored cycle by cycle against the reference model's memoized golden
// trace. A lane whose simulation dies keeps the pass rate accumulated up
// to the failing cycle, like Env.Run.
func ObserveLanes(f *Fault, seeds []int64, n int) ([]float64, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("faultgen: ObserveLanes needs at least one seed")
	}
	m := f.Meta()
	prog, err := sim.CompileSource(f.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		return nil, err
	}
	b, err := sim.NewBatch(prog, len(seeds), m.Clock)
	if err != nil {
		return nil, err
	}
	ports := b.Ports()
	rstName, _ := sim.FindReset(prog.Design())
	memo := uvm.SharedTraceMemo()
	stims := make([]*uvm.Stimulus, len(seeds))
	golden := make([]*uvm.Trace, len(seeds))
	cols := make([][]int, len(seeds))
	for k, seed := range seeds {
		seq := &uvm.RandomSequence{Ports: ports, N: n, ResetName: rstName, ResetEvery: 50}
		stims[k] = uvm.Materialize(seq, seed, ports)
		if n > 0 && stims[k].Row(0) == nil {
			return nil, fmt.Errorf("faultgen: %s stimulus does not fit the batch row layout", m.Name)
		}
		if golden[k], err = memo.Expected(m.Name, rstName != "", stims[k]); err != nil {
			return nil, err
		}
		cols[k] = golden[k].Columns(prog.Design().Outputs())
	}
	if rstName != "" {
		if err := b.ApplyReset(2); err != nil {
			return nil, err
		}
	}
	scores := make([]*uvm.Scoreboard, len(seeds))
	for k := range scores {
		scores[k] = &uvm.Scoreboard{MaxMismatches: 64}
	}
	rows := make([][]uint64, len(seeds))
	var out []uint64
	for i := 0; i < n; i++ {
		cycle := b.CycleCount()
		for k := range rows {
			rows[k] = nil
			if b.Err(k) == nil {
				rows[k] = stims[k].Row(i)
			}
		}
		if err := b.Cycle(rows); err != nil {
			return nil, err
		}
		for k := range rows {
			if rows[k] == nil || b.Err(k) != nil {
				continue // dead lane: rate frozen where the simulation died
			}
			out = b.OutputRow(k, out)
			scores[k].CompareRow(cycle, golden[k], i, cols[k], out)
		}
	}
	rates := make([]float64, len(seeds))
	for k, sb := range scores {
		rates[k] = sb.PassRate()
	}
	return rates, nil
}
