package exp

// Batch amortization study: how much of a standalone instance's
// per-cycle cost the fused batch scheduler actually shares. The study
// drives K lanes of each hot-loop benchmark module for a fixed cycle
// count twice — as K standalone harness runs and as one sim.Batch — and
// reports per-lane-cycle wall time for both. It feeds the EXPERIMENTS.md
// amortization table; BenchmarkBatchVsSequential guards the same ratio
// in CI.

import (
	"fmt"
	"strings"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/sim"
)

// BatchAmortRow is one module's batch-vs-sequential timing comparison.
type BatchAmortRow struct {
	Module        string
	Lanes         int
	Cycles        int     // per lane
	SeqNsPerLC    float64 // sequential ns per lane-cycle (K standalone instances)
	BatchNsPerLC  float64 // batched ns per lane-cycle (one K-lane sim.Batch)
	PerLaneFactor float64 // SeqNsPerLC / BatchNsPerLC
}

// batchAmortModules is the hot-loop module mix the root benchmarks
// drive: two levelized designs, one FSM, one wide adder.
var batchAmortModules = []string{"fifo_sync", "alu", "traffic_light", "adder_32bit"}

// BatchAmortizationStudy measures the per-lane-cycle amortization factor
// of sim.Batch over the hot-loop benchmark modules. lanes <= 1 defaults
// to 8, cycles <= 0 to 2000. Stimulus is the benchmark driver's
// deterministic stream, varied per lane.
func (s *Session) BatchAmortizationStudy(lanes, cycles int) ([]BatchAmortRow, error) {
	if lanes <= 1 {
		lanes = 8
	}
	if cycles <= 0 {
		cycles = 2000
	}
	var rows []BatchAmortRow
	for _, name := range batchAmortModules {
		m := dataset.ByName(name)
		p, err := s.Cache.Compile(m.Source, m.Top, s.Backend)
		if err != nil {
			return rows, fmt.Errorf("exp: batch study: %s: %w", name, err)
		}
		seq, err := timeSequentialLanes(p, m, lanes, cycles)
		if err != nil {
			return rows, fmt.Errorf("exp: batch study: %s (sequential): %w", name, err)
		}
		bat, err := timeLanes(m, lanes, cycles, newBatch(p, m, lanes))
		if err != nil {
			return rows, fmt.Errorf("exp: batch study: %s (batch): %w", name, err)
		}
		lc := float64(lanes) * float64(cycles)
		row := BatchAmortRow{
			Module: name, Lanes: lanes, Cycles: cycles,
			SeqNsPerLC:   float64(seq.Nanoseconds()) / lc,
			BatchNsPerLC: float64(bat.Nanoseconds()) / lc,
		}
		if row.BatchNsPerLC > 0 {
			row.PerLaneFactor = row.SeqNsPerLC / row.BatchNsPerLC
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// amortStim is the benchmark driver's stimulus value for one (lane,
// cycle, port) triple — deterministic, cheap, per-lane distinct.
func amortStim(lane, cycle int, pt sim.PortInfo) uint64 {
	return uint64(cycle*31+lane*7+len(pt.Name)) & amortMask(pt.Width)
}

func amortMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(w)) - 1
}

// timeSequentialLanes runs `lanes` standalone harness instances of p for
// `cycles` cycles each — today's consumer pattern — and returns the wall
// time.
func timeSequentialLanes(p *sim.Program, m *dataset.Module, lanes, cycles int) (time.Duration, error) {
	inputs := p.Design().Inputs()
	start := time.Now()
	for k := 0; k < lanes; k++ {
		inst, err := p.NewInstance()
		if err != nil {
			return 0, err
		}
		h := sim.NewHarness(inst, m.Clock)
		if err := h.ApplyReset(2); err != nil {
			return 0, err
		}
		in := map[string]uint64{}
		for c := 0; c < cycles; c++ {
			for _, pt := range inputs {
				if pt.Name == m.Clock {
					continue
				}
				in[pt.Name] = amortStim(k, c, pt)
			}
			if m.HasReset {
				in["rst_n"] = 1
			}
			if _, err := h.Cycle(in); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// newBatch builds the batch side of the studies: one `lanes`-lane
// sim.Batch of p.
func newBatch(p *sim.Program, m *dataset.Module, lanes int) func() (sim.LaneEngine, error) {
	return func() (sim.LaneEngine, error) { return sim.NewBatch(p, lanes, m.Clock) }
}

// timeLanes runs the same stimulus stream as timeSequentialLanes, as flat
// rows, through one lane engine of `lanes` lanes — construction and the
// reset phase included — and returns the wall time.
func timeLanes(m *dataset.Module, lanes, cycles int, build func() (sim.LaneEngine, error)) (time.Duration, error) {
	start := time.Now()
	eng, err := build()
	if err != nil {
		return 0, err
	}
	if err := eng.ApplyReset(2); err != nil {
		return 0, err
	}
	ports := eng.Ports()
	rstIdx := -1
	for i, pt := range ports {
		if m.HasReset && pt.Name == "rst_n" {
			rstIdx = i
		}
	}
	rows := make([][]uint64, lanes)
	for k := range rows {
		rows[k] = make([]uint64, len(ports))
	}
	for c := 0; c < cycles; c++ {
		for k := range rows {
			for i, pt := range ports {
				rows[k][i] = amortStim(k, c, pt)
			}
			if rstIdx >= 0 {
				rows[k][rstIdx] = 1
			}
		}
		if err := eng.Cycle(rows); err != nil {
			return 0, err
		}
	}
	for k := range rows {
		if err := eng.Err(k); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// FormatBatchAmortization renders the study as the EXPERIMENTS.md table.
func FormatBatchAmortization(rows []BatchAmortRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Batch amortization, %d lanes x %d cycles (compiled backend)\n",
		rows[0].Lanes, rows[0].Cycles)
	fmt.Fprintf(&b, "%-18s %14s %14s %9s\n", "module", "seq ns/lc", "batch ns/lc", "factor")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %14.1f %14.1f %8.2fx\n",
			r.Module, r.SeqNsPerLC, r.BatchNsPerLC, r.PerLaneFactor)
		sum += r.PerLaneFactor
	}
	fmt.Fprintf(&b, "%-18s %14s %14s %8.2fx\n", "mean", "", "", sum/float64(len(rows)))
	return b.String()
}
