package exp

// Bit-parallel amortization study: the per-lane-cycle cost of the P64
// bit-parallel engine. The study drives the hot-loop module mix three
// ways for a fixed cycle count — K standalone harness instances under map
// stimulus, one K-lane sim.Batch (K harnesses under row stimulus), and
// one 64-lane psim.Engine (recording off, the throughput-consumer
// configuration) — and reports ns per lane-cycle for each. It feeds the
// EXPERIMENTS.md bit-parallel table; BenchmarkBitSimLanes and
// benchguard's per-lane pair rule guard the same ratio in CI.

import (
	"fmt"
	"strings"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// batchAmortModules is the hot-loop module mix the root benchmarks
// drive: two levelized designs, one FSM, one wide adder.
var batchAmortModules = []string{"fifo_sync", "alu", "traffic_light", "adder_32bit"}

// BitAmortRow is one module's three-way per-lane-cycle timing comparison.
type BitAmortRow struct {
	Module       string
	Cycles       int     // per lane
	SeqNsPerLC   float64 // sequential ns per lane-cycle (8 standalone instances)
	BatchNsPerLC float64 // batched ns per lane-cycle (one 8-lane sim.Batch)
	BitNsPerLC   float64 // bit-parallel ns per lane-cycle (one 64-lane psim.Engine)
	VsBatch      float64 // BatchNsPerLC / BitNsPerLC
	VsSeq        float64 // SeqNsPerLC / BitNsPerLC
}

// bitAmortLanes is the psim lane count: one full machine word, the
// engine's natural width.
const bitAmortLanes = 64

// BitSimAmortizationStudy measures per-lane-cycle cost of the bit-parallel
// engine against sim.Batch (8 lanes) and standalone instances over the
// hot-loop module mix. cycles <= 0 defaults to 2000. Every module of the
// mix must be inside the bit-parallel subset; an unsupported module is an
// error, not a silent fallback, so the study never mislabels batch
// numbers as bit-parallel ones.
func (s *Session) BitSimAmortizationStudy(cycles int) ([]BitAmortRow, error) {
	if cycles <= 0 {
		cycles = 2000
	}
	const batchLanes = 8
	var rows []BitAmortRow
	for _, name := range batchAmortModules {
		m := dataset.ByName(name)
		p, err := s.Cache.Compile(m.Source, m.Top, s.Backend)
		if err != nil {
			return rows, fmt.Errorf("exp: bitlanes study: %s: %w", name, err)
		}
		if err := psim.Supported(p, m.Clock); err != nil {
			return rows, fmt.Errorf("exp: bitlanes study: %s outside the bit-parallel subset: %w", name, err)
		}
		seq, err := timeSequentialLanes(p, m, batchLanes, cycles)
		if err != nil {
			return rows, fmt.Errorf("exp: bitlanes study: %s (sequential): %w", name, err)
		}
		bat, err := timeLanes(m, batchLanes, cycles, newBatch(p, m, batchLanes))
		if err != nil {
			return rows, fmt.Errorf("exp: bitlanes study: %s (batch): %w", name, err)
		}
		bit, err := timeLanes(m, bitAmortLanes, cycles, func() (sim.LaneEngine, error) {
			e, err := psim.NewEngine(p, bitAmortLanes, m.Clock)
			if err == nil {
				e.SetRecord(false) // the throughput consumers screen without waveforms
			}
			return e, err
		})
		if err != nil {
			return rows, fmt.Errorf("exp: bitlanes study: %s (bit-parallel): %w", name, err)
		}
		row := BitAmortRow{
			Module: name, Cycles: cycles,
			SeqNsPerLC:   float64(seq.Nanoseconds()) / (batchLanes * float64(cycles)),
			BatchNsPerLC: float64(bat.Nanoseconds()) / (batchLanes * float64(cycles)),
			BitNsPerLC:   float64(bit.Nanoseconds()) / (bitAmortLanes * float64(cycles)),
		}
		if row.BitNsPerLC > 0 {
			row.VsBatch = row.BatchNsPerLC / row.BitNsPerLC
			row.VsSeq = row.SeqNsPerLC / row.BitNsPerLC
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatBitSimAmortization renders the study as the EXPERIMENTS.md table.
func FormatBitSimAmortization(rows []BitAmortRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Bit-parallel amortization, %d lanes x %d cycles (vs 8-lane batch and sequential)\n",
		bitAmortLanes, rows[0].Cycles)
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %9s %9s\n",
		"module", "seq ns/lc", "batch ns/lc", "bit ns/lc", "vs batch", "vs seq")
	var sumB, sumS float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %12.1f %8.2fx %8.2fx\n",
			r.Module, r.SeqNsPerLC, r.BatchNsPerLC, r.BitNsPerLC, r.VsBatch, r.VsSeq)
		sumB += r.VsBatch
		sumS += r.VsSeq
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %8.2fx %8.2fx\n", "mean", "", "", "", sumB/n, sumS/n)
	return b.String()
}

// amortStim is the hot-loop benchmarks' stimulus value for one (lane,
// cycle, port) triple — deterministic, cheap, per-lane distinct.
func amortStim(lane, cycle int, pt sim.PortInfo) uint64 {
	return uint64(cycle*31+lane*7+len(pt.Name)) & verilog.Mask(pt.Width)
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
