package faultgen

// Lane-parallel mutant observation. Classifying a fault means running
// the faulty source under the golden testbench; one stimulus seed can
// miss a fault another catches, and re-running the same compiled mutant
// per seed pays the full per-instance cost each time. ObserveLanes
// takes the mutant's program from the shared compile cache (the one
// ClassifyBitParallel compiles it through) and drives K seeds as K
// lanes of one lane engine — bit-parallel on psim.Engine when the design
// blasts and K fits a word, fused sweeps of one sim.Batch otherwise —
// scoring each lane against the memoized golden trace exactly as the
// sequential environment would.

import (
	"fmt"

	"uvllm/internal/psim"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// ObserveLanes runs the faulty source under the golden UVM stimulus for
// every seed at once, one lane per seed, and returns the per-seed pass
// rates. The lanes run on psim.Engine, recording off, whenever
// psim.NewEngine accepts the design and the seed count (at most 64);
// otherwise they run on sim.Batch. Both engines are byte-identical on
// psim's subset. Each lane replays the exact protocol of the sequential
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
	prog, err := sim.SharedCache().Compile(f.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		return nil, err
	}
	var eng sim.LaneEngine
	if e, perr := psim.NewEngine(prog, len(seeds), m.Clock); perr == nil {
		e.SetRecord(false)
		eng = e
	} else if eng, err = sim.NewBatch(prog, len(seeds), m.Clock); err != nil {
		return nil, err
	}
	ports := eng.Ports()
	rstName, _ := sim.FindReset(prog.Design())
	memo := uvm.SharedTraceMemo()
	stims := make([]*uvm.Stimulus, len(seeds))
	golden := make([]*uvm.Trace, len(seeds))
	cols := make([][]int, len(seeds))
	for k, seed := range seeds {
		seq := &uvm.RandomSequence{Ports: ports, N: n, ResetName: rstName, ResetEvery: 50}
		stims[k] = uvm.Materialize(seq, seed, ports)
		if n > 0 && stims[k].Row(0) == nil {
			return nil, fmt.Errorf("faultgen: %s stimulus does not fit the lane row layout", m.Name)
		}
		if golden[k], err = memo.Expected(m.Name, rstName != "", stims[k]); err != nil {
			return nil, err
		}
		cols[k] = golden[k].Columns(prog.Design().Outputs())
	}
	resetLen := 0 // the harness clock reads resetLen+i at vector i
	if rstName != "" {
		if err := eng.ApplyReset(2); err != nil {
			return nil, err
		}
		resetLen = 2
	}
	scores := make([]*uvm.Scoreboard, len(seeds))
	for k := range scores {
		scores[k] = &uvm.Scoreboard{MaxMismatches: 64}
	}
	rows := make([][]uint64, len(seeds))
	var out []uint64
	for i := 0; i < n; i++ {
		for k := range rows {
			rows[k] = nil
			if eng.Err(k) == nil {
				rows[k] = stims[k].Row(i)
			}
		}
		if err := eng.Cycle(rows); err != nil {
			return nil, err
		}
		for k := range rows {
			if rows[k] == nil || eng.Err(k) != nil {
				continue // dead lane: rate frozen where the simulation died
			}
			out = eng.OutputRow(k, out)
			scores[k].CompareRow(resetLen+i, golden[k], i, cols[k], out)
		}
	}
	rates := make([]float64, len(seeds))
	for k, sb := range scores {
		rates[k] = sb.PassRate()
	}
	return rates, nil
}
