package exp

// Bit-parallel amortization study: the same per-lane-cycle cost question
// as the batch study, asked of the P64 bit-parallel engine. The study
// drives the hot-loop module mix three ways for a fixed cycle count —
// K standalone harness instances, one K-lane sim.Batch, and one 64-lane
// psim.Engine (recording off, the throughput-consumer configuration) —
// and reports ns per lane-cycle for each. It feeds the EXPERIMENTS.md
// bit-parallel table; BenchmarkBitSimLanes and benchguard's per-lane
// pair rule guard the same ratio in CI.

import (
	"fmt"
	"strings"

	"uvllm/internal/dataset"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

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
