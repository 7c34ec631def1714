package sim

// Multi-lane batch simulation. A Batch is K standalone Harnesses, one per
// lane, over fresh Instances of one Program, driven in lockstep by row
// stimulus: Cycle runs Harness.CycleRow on every live lane and
// ApplyReset runs Harness.ApplyReset. Lane k of a Batch is therefore
// identical to a standalone harness driving the same rows by
// construction — same outputs, state, coverage map and error, at the
// same cycle, with the same message — and the rtlgen lane differential
// gate (DiffLanes) checks it over generated designs. Lane harnesses
// record no waveform: no lane consumer reads one.

import (
	"fmt"

	"uvllm/internal/cover"
)

// LaneEngine is the row-only contract of the lane engines — Batch and
// the bit-parallel psim.Engine: K independent simulations of one design
// driven in lockstep through the harness cycle protocol, with stimulus
// rows aligned with Ports() (a nil row masks a lane out of a cycle) and
// every lane observable on its own through its outputs and state. Lane
// k of any LaneEngine must match a standalone Harness driving the same
// rows, cycle by cycle.
type LaneEngine interface {
	Lanes() int
	Ports() []PortInfo
	ApplyReset(cycles int) error
	Cycle(rows [][]uint64) error
	Err(k int) error
	OutputRow(k int, buf []uint64) []uint64
	Get(k int, name string) uint64
	GetMem(k int, name string, word int) uint64
}

var _ LaneEngine = (*Batch)(nil)

// Batch drives K lanes — K Harnesses over Instances of one Program —
// through the cycle protocol in lockstep. Lanes are independent
// simulations: they share only the immutable Program. A lane that errors
// (oscillation, an unknown clock name) goes inert at that cycle —
// exactly where the standalone harness run would have stopped — and the
// remaining lanes continue; Err reports per-lane outcomes.
//
// A Batch is not safe for concurrent use by multiple goroutines.
type Batch struct {
	lanes []*Harness
	errs  []error
}

// NewBatch allocates a batch of `lanes` fresh Instances of p, each from
// Program.NewInstance and wrapped in its own waveform-free Harness with
// the given clock input ("" for combinational designs).
func NewBatch(p *Program, lanes int, clock string) (*Batch, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("sim: batch needs at least 1 lane, got %d", lanes)
	}
	b := &Batch{lanes: make([]*Harness, lanes), errs: make([]error, lanes)}
	for k := range b.lanes {
		inst, err := p.NewInstance()
		if err != nil {
			return nil, err
		}
		b.lanes[k] = newHarness(inst, clock, false)
	}
	return b, nil
}

// Lanes returns the number of lanes.
func (b *Batch) Lanes() int { return len(b.lanes) }

// Lane returns lane k's Instance — a real Instance of the shared Program,
// so Snapshot, Restore, Get, GetMem and Coverage all work per lane.
func (b *Batch) Lane(k int) *Instance { return b.lanes[k].Sim }

// Err returns the error that made lane k inert, or nil while it is live.
func (b *Batch) Err(k int) error { return b.errs[k] }

// Ports returns the row stimulus layout: the non-clock inputs in
// declaration order. Cycle rows must align with this slice.
func (b *Batch) Ports() []PortInfo { return b.lanes[0].Ports() }

// EnableCover enables structural coverage on every lane through
// Harness.EnableCover, so the batch clock's points are left out exactly
// as on a standalone harness.
func (b *Batch) EnableCover() error {
	for k := range b.lanes {
		if err := b.EnableCoverLane(k); err != nil {
			return err
		}
	}
	return nil
}

// EnableCoverLane enables structural coverage on one lane through
// Harness.EnableCover, replacing the lane's map with an empty one. The
// directed-stimulus scorer uses this to give each speculative lane a
// fresh per-round map.
func (b *Batch) EnableCoverLane(k int) error { return b.lanes[k].EnableCover() }

// Coverage returns lane k's accumulated coverage map, or nil when
// coverage is off.
func (b *Batch) Coverage(k int) *cover.Map { return b.lanes[k].Coverage() }

// OutputRow samples lane k's outputs into buf (grown as needed) in the
// output declaration order, the layout of Harness.OutputRow.
func (b *Batch) OutputRow(k int, buf []uint64) []uint64 { return b.lanes[k].OutputRow(buf) }

// Get reads lane k's current value of a signal by name (0 when unknown).
func (b *Batch) Get(k int, name string) uint64 { return b.lanes[k].Sim.Get(name) }

// GetMem reads lane k's current value of one memory word (0 when unknown
// or out of range).
func (b *Batch) GetMem(k int, name string, word int) uint64 {
	return b.lanes[k].Sim.GetMem(name, word)
}

// Cycle drives one cycle on every live lane: rows[k] holds lane k's
// stimulus aligned with Ports(), applied through Harness.CycleRow. A nil
// rows[k] masks lane k out of this cycle entirely — it does not
// advance. Every row's shape is checked before any lane moves, so a
// malformed call advances no lane. Per-lane simulation errors do not
// fail the call; they park in Err(k).
func (b *Batch) Cycle(rows [][]uint64) error {
	if len(rows) != len(b.lanes) {
		return fmt.Errorf("sim: batch cycle: %d rows for %d lanes", len(rows), len(b.lanes))
	}
	want := len(b.lanes[0].inPorts)
	for k, row := range rows {
		if row != nil && len(row) != want {
			return fmt.Errorf("sim: batch cycle: lane %d row has %d values, want %d", k, len(row), want)
		}
	}
	for k, h := range b.lanes {
		if b.errs[k] != nil || rows[k] == nil {
			continue
		}
		if err := h.CycleRow(rows[k]); err != nil {
			b.errs[k] = err
		}
	}
	return nil
}

// ApplyReset runs Harness.ApplyReset on every live lane; a lane that
// fails parks the harness's error (wrapped "sim: reset:" for a failure
// inside the reset cycles) in Err(k). Designs without a recognized reset
// input are untouched.
func (b *Batch) ApplyReset(cycles int) error {
	for k, h := range b.lanes {
		if b.errs[k] != nil {
			continue
		}
		if err := h.ApplyReset(cycles); err != nil {
			b.errs[k] = err
		}
	}
	return nil
}
