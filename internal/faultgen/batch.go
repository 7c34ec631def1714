package faultgen

// Lane-parallel mutant observation. Classifying a fault means running
// the faulty source under the golden testbench; one stimulus seed can
// miss a fault another catches, and re-running the same compiled mutant
// per seed pays the full per-instance cost each time. ObserveLanes
// takes the mutant's program from the shared compile cache (the one
// ClassifyBitParallel compiles it through) and drives K seeds as K
// lanes of one lane engine — bit-parallel on psim.Engine when the design
// blasts and K fits a word, one sim.Batch (a row-driven harness per
// lane) otherwise —
// scoring each lane against the memoized golden trace exactly as the
// sequential environment would.

import (
	"fmt"

	"uvllm/internal/dataset"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// ObserveLanes runs the faulty source under the golden UVM stimulus for
// every seed at once, one lane per seed, and returns the per-seed pass
// rates. The lanes run on psim.Engine whenever psim.NewEngine accepts
// the design and the seed count (at most 64); otherwise they run on
// sim.Batch. Both engines are byte-identical on psim's subset. Each
// lane replays the exact protocol of the sequential observe path: a
// 2-cycle reset phase when the design has a reset, then n random
// vectors (ResetEvery 50) materialized from that lane's seed, scored
// cycle by cycle against the reference model's memoized golden trace.
// The stimuli come from the shared memo's Materialize, so the faults of
// one module draw and hash each seed's stream once, and a stream that
// does not fit the lane row layout is Materialize's error. The golden
// traces are the memo's own, read in place. A lane whose simulation
// dies keeps the pass rate accumulated up to the failing cycle, like
// Env.Run.
func ObserveLanes(f *Fault, seeds []int64, n int) ([]float64, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("faultgen: ObserveLanes needs at least one seed")
	}
	m := f.Meta()
	prog, err := sim.SharedCache().Compile(f.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		return nil, err
	}
	return observeLanes(prog, m, uvm.NewRandomSequence(prog.Design(), m.Clock, n), seeds)
}

// observeLanes is ObserveLanes on the compiled mutant prog of module m:
// lane k draws a fresh copy of random from seeds[k].
func observeLanes(prog *sim.Program, m *dataset.Module, random *uvm.RandomSequence, seeds []int64) ([]float64, error) {
	var eng sim.LaneEngine
	var err error
	if e, perr := psim.NewEngine(prog, len(seeds), m.Clock); perr == nil {
		eng = e
	} else if eng, err = sim.NewBatch(prog, len(seeds), m.Clock); err != nil {
		return nil, err
	}
	ports := eng.Ports()
	n, rstName := random.N, random.ResetName
	memo := uvm.SharedTraceMemo()
	stims := make([]*uvm.Stimulus, len(seeds))
	golden := make([]*uvm.Trace, len(seeds))
	cols := make([][]int, len(seeds))
	for k, seed := range seeds {
		seq := *random // a sequence counts what it has emitted: one fresh copy per seed
		if stims[k], err = memo.Materialize(&seq, seed, ports); err != nil {
			return nil, err
		}
		if golden[k], err = memo.Expected(m.Name, rstName != "", stims[k]); err != nil {
			return nil, err
		}
		cols[k] = golden[k].Columns(prog.Design().Outputs())
	}
	resetLen := 0 // the harness clock reads resetLen+i at vector i
	if rstName != "" {
		if err := eng.ApplyReset(sim.ResetCycles); err != nil {
			return nil, err
		}
		resetLen = sim.ResetCycles
	}
	scores := make([]*uvm.Scoreboard, len(seeds))
	for k := range scores {
		scores[k] = &uvm.Scoreboard{}
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
