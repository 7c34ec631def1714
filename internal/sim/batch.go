package sim

// Multi-lane batch simulation. A Batch runs K Instances of one Program
// through the harness cycle protocol in lockstep, amortizing everything
// per-cycle work shares across lanes: the schedule decode (port and
// waveform arena indices are resolved once, not once per lane), the
// levelized combinational sweep (one walk of the topological order runs
// every dirty lane's closure at each position, so the order array and the
// closure code stay hot in cache), and the signal arenas (one contiguous
// pooled slab, sliced per lane). Stimulus enters as flat rows aligned
// with the non-clock input declaration order — no per-cycle map
// allocation or name hashing.
//
// Byte-identity is the design constraint, not an aspiration: lane k of a
// Batch must produce the same trace, VCD rendering, coverage map and
// error (at the same cycle, with the same message) as a standalone
// Harness driving a fresh Instance with the same stimulus. The fused
// sweep preserves the per-lane state machine of settleLevelized exactly —
// same phase order, same per-lane delta accounting, same self-trigger
// guard — and the rtlgen lane differential gate (DiffLanes) enforces the
// equivalence over generated designs.

import (
	"fmt"

	"uvllm/internal/cover"
)

// LaneEngine is the row-only contract of the lane engines — Batch and
// the bit-parallel psim.Engine: K independent simulations of one design
// driven in lockstep through the harness cycle protocol, with stimulus
// rows aligned with Ports() (a nil row masks a lane out of a cycle) and
// every lane observable on its own. Lane k of any LaneEngine must be
// byte-identical to a standalone Harness driving the same rows.
type LaneEngine interface {
	Lanes() int
	Ports() []PortInfo
	ApplyReset(cycles int) error
	Cycle(rows [][]uint64) error
	Err(k int) error
	Wave(k int) *Waveform
	OutputRow(k int, buf []uint64) []uint64
	Get(k int, name string) uint64
	GetMem(k int, name string, word int) uint64
}

var _ LaneEngine = (*Batch)(nil)

// Batch drives K lanes — K Instances of one Program — through the cycle
// protocol in lockstep. Lanes are independent simulations: they share the
// immutable Program, the decoded schedule and one pooled signal arena,
// but never observe each other's state. A lane that errors (oscillation,
// an unknown clock name) goes inert at that cycle — exactly where the
// standalone harness run would have stopped — and the remaining lanes
// continue; Err reports per-lane outcomes.
//
// A Batch is not safe for concurrent use by multiple goroutines.
type Batch struct {
	prog  *Program
	d     *Design
	clock string

	lanes []*Instance
	waves []*Waveform
	errs  []error

	inPorts  []portRef // non-clock inputs, declaration order — the row layout
	outPorts []portRef
	recIdx   []int // arena index per recorded name, in Waveform Names() order
	cycle    int

	recRow     []uint64 // scratch row shared by all lanes
	sweepLanes []int    // scratch: lanes participating in the current fused sweep
	steps      []int    // scratch: per-lane delta counter of the current settle
	skip       []bool   // scratch: lanes masked out of the current cycle
}

// NewBatch allocates a batch of `lanes` fresh Instances of p, pooled in
// one contiguous signal arena, with the given clock input ("" for
// combinational designs). Each lane is reset and settled exactly like
// Program.NewInstance.
func NewBatch(p *Program, lanes int, clock string) (*Batch, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("sim: batch needs at least 1 lane, got %d", lanes)
	}
	b := &Batch{prog: p, d: p.Design(), clock: clock}
	n := len(b.d.sigs)
	slab := make([]uint64, lanes*n)
	var names []string
	for _, pt := range b.d.Inputs() {
		names = append(names, pt.Name)
		if pt.Name == clock {
			continue
		}
		if idx, ok := b.d.byName[pt.Name]; ok {
			b.inPorts = append(b.inPorts, portRef{name: pt.Name, idx: idx})
		}
	}
	for _, pt := range b.d.Outputs() {
		names = append(names, pt.Name)
		if idx, ok := b.d.byName[pt.Name]; ok {
			b.outPorts = append(b.outPorts, portRef{name: pt.Name, idx: idx})
		}
	}
	for k := 0; k < lanes; k++ {
		inst, err := p.newInstanceArena(slab[k*n : (k+1)*n : (k+1)*n])
		if err != nil {
			return nil, err
		}
		b.lanes = append(b.lanes, inst)
		w := NewWaveform(names)
		b.waves = append(b.waves, w)
		if b.recIdx == nil {
			for _, rn := range w.Names() {
				idx := -1
				if i, ok := b.d.byName[rn]; ok {
					idx = i
				}
				b.recIdx = append(b.recIdx, idx)
			}
		}
	}
	b.errs = make([]error, lanes)
	b.recRow = make([]uint64, len(b.recIdx))
	b.steps = make([]int, lanes)
	b.skip = make([]bool, lanes)
	return b, nil
}

// Lanes returns the number of lanes.
func (b *Batch) Lanes() int { return len(b.lanes) }

// Lane returns lane k's Instance — a real Instance of the shared Program,
// so Snapshot, Restore, Get, GetMem and EnableCover all work per lane.
func (b *Batch) Lane(k int) *Instance { return b.lanes[k] }

// Wave returns lane k's recorded waveform (same names and layout as a
// standalone Harness waveform).
func (b *Batch) Wave(k int) *Waveform { return b.waves[k] }

// Err returns the error that made lane k inert, or nil while it is live.
func (b *Batch) Err(k int) error { return b.errs[k] }

// CycleCount returns the number of batch cycles driven so far.
func (b *Batch) CycleCount() int { return b.cycle }

// Ports returns the row stimulus layout: the non-clock inputs in
// declaration order. Cycle rows must align with this slice.
func (b *Batch) Ports() []PortInfo {
	out := make([]PortInfo, 0, len(b.inPorts))
	for _, pr := range b.inPorts {
		out = append(out, PortInfo{Name: pr.name, Width: b.d.sigs[pr.idx].width})
	}
	return out
}

// EnableCover enables structural coverage on every lane, excluding the
// batch clock from the toggle universe exactly like Harness.EnableCover.
func (b *Batch) EnableCover(opts CoverOptions) error {
	for k := range b.lanes {
		if err := b.EnableCoverLane(k, opts); err != nil {
			return err
		}
	}
	return nil
}

// EnableCoverLane enables (or, with a zero CoverOptions, disables)
// structural coverage on one lane, excluding the batch clock like
// Harness.EnableCover. The directed-stimulus scorer uses this to give
// each speculative lane a fresh per-round map.
func (b *Batch) EnableCoverLane(k int, opts CoverOptions) error {
	if opts.Any() && b.clock != "" {
		opts.ExcludeSignals = append(append([]string(nil), opts.ExcludeSignals...), b.clock)
	}
	return b.lanes[k].EnableCover(opts)
}

// Coverage returns lane k's accumulated coverage map, or nil when
// coverage is off.
func (b *Batch) Coverage(k int) *cover.Map { return b.lanes[k].Coverage() }

// OutputRow samples lane k's outputs into buf (grown as needed) in the
// output declaration order, the layout of Harness.OutputRow.
func (b *Batch) OutputRow(k int, buf []uint64) []uint64 {
	s := b.lanes[k]
	buf = buf[:0]
	for _, pr := range b.outPorts {
		buf = append(buf, s.vals[pr.idx])
	}
	return buf
}

// Get reads lane k's current value of a signal by name (0 when unknown).
func (b *Batch) Get(k int, name string) uint64 { return b.lanes[k].Get(name) }

// GetMem reads lane k's current value of one memory word (0 when unknown
// or out of range).
func (b *Batch) GetMem(k int, name string, word int) uint64 { return b.lanes[k].GetMem(name, word) }

// Cycle drives one cycle on every live lane: rows[k] holds lane k's
// stimulus aligned with Ports() (every non-clock input is applied). A nil
// rows[k] masks lane k out of this cycle entirely — it neither advances
// nor records. The protocol per lane is exactly Harness.Cycle: apply
// inputs, settle, sample exec coverage, pulse the clock with settles,
// sample state coverage, record the waveform row. Per-lane simulation
// errors do not fail the call; they park in Err(k).
func (b *Batch) Cycle(rows [][]uint64) error {
	if len(rows) != len(b.lanes) {
		return fmt.Errorf("sim: batch cycle: %d rows for %d lanes", len(rows), len(b.lanes))
	}
	for k, row := range rows {
		b.skip[k] = row == nil
		if row != nil && len(row) != len(b.inPorts) {
			return fmt.Errorf("sim: batch cycle: lane %d row has %d values, want %d", k, len(row), len(b.inPorts))
		}
	}
	for k, s := range b.lanes {
		if b.errs[k] != nil || b.skip[k] {
			continue
		}
		row := rows[k]
		for i, pr := range b.inPorts {
			s.set(pr.idx, row[i])
		}
	}
	b.finishCycle()
	return nil
}

// finishCycle runs the shared post-apply protocol: settle, exec-coverage
// sample, clock pulse, state-coverage sample, waveform row.
func (b *Batch) finishCycle() {
	b.settleAll()
	for k, s := range b.lanes {
		if b.errs[k] == nil && !b.skip[k] && s.cov != nil {
			s.coverSampleExec()
		}
	}
	if b.clock != "" {
		clockIdx, haveClock := b.d.byName[b.clock]
		if haveClock {
			for k, s := range b.lanes {
				if b.errs[k] == nil && !b.skip[k] {
					s.set(clockIdx, 1)
				}
			}
			b.settleAll()
			for k, s := range b.lanes {
				if b.errs[k] == nil && !b.skip[k] {
					s.set(clockIdx, 0)
				}
			}
			b.settleAll()
		} else {
			// Unknown clock name: fail each live lane with the Harness's
			// error surface for the same stimulus.
			for k := range b.lanes {
				if b.errs[k] == nil && !b.skip[k] {
					b.errs[k] = fmt.Errorf("sim: unknown signal %q", b.clock)
				}
			}
		}
	}
	for k, s := range b.lanes {
		if b.errs[k] != nil || b.skip[k] {
			continue
		}
		if s.cov != nil {
			s.coverSampleState()
		}
		for i, idx := range b.recIdx {
			if idx >= 0 {
				b.recRow[i] = s.vals[idx]
			} else {
				b.recRow[i] = 0
			}
		}
		b.waves[k].recordRow(b.recRow)
	}
	b.cycle++
}

// settleAll settles every live, unmasked lane. On levelized programs the
// combinational phase is fused: one walk of the shared topological order
// per delta round runs every sweeping lane's closure at each position.
// The per-lane state machine — sweep if needed, then NBA commits, then
// sequential processes, loop until quiet, per-lane delta accounting
// against DeltaLimit — is exactly settleLevelized's; lanes that go quiet
// simply sit out later rounds. Non-levelized programs settle lane by
// lane (nothing to fuse in an event-queue walk).
func (b *Batch) settleAll() {
	if !b.prog.levelized {
		for k, s := range b.lanes {
			if b.errs[k] != nil || b.skip[k] {
				continue
			}
			if err := s.Settle(); err != nil {
				b.errs[k] = err
			}
		}
		return
	}
	code := b.prog.code
	for k := range b.steps {
		b.steps[k] = 0
	}
	for {
		// Combinational phase, fused across lanes.
		b.sweepLanes = b.sweepLanes[:0]
		for k, s := range b.lanes {
			if b.errs[k] != nil || b.skip[k] || !s.needSweep {
				continue
			}
			b.steps[k]++
			if b.steps[k] > s.DeltaLimit {
				b.errs[k] = fmt.Errorf("sim: combinational logic did not converge after %d deltas (oscillation)", s.DeltaLimit)
				continue
			}
			s.needSweep = false
			s.inSweep = true
			b.sweepLanes = append(b.sweepLanes, k)
		}
		if len(b.sweepLanes) > 0 {
			for i, pi := range code.order {
				fn := code.orderFns[i]
				for _, k := range b.sweepLanes {
					s := b.lanes[k]
					if b.errs[k] != nil || !s.dirty[pi] {
						continue
					}
					s.dirty[pi] = false
					s.running = pi
					err := fn(s)
					s.running = -1
					if err != nil {
						s.inSweep = false
						b.errs[k] = err
					}
				}
			}
			for _, k := range b.sweepLanes {
				s := b.lanes[k]
				if b.errs[k] != nil {
					continue
				}
				s.inSweep = false
				// Same defense in depth as settleLevelized: a re-dirtied
				// process means another sweep (and ultimately the delta
				// limit) instead of silent divergence.
				for _, pi := range code.order {
					if s.dirty[pi] {
						s.needSweep = true
						break
					}
				}
			}
		}
		// NBA / sequential phase, per lane (NBA commits take priority and
		// send the lane back through the sweep check, exactly like the
		// standalone loop's continue).
		work := false
		for k, s := range b.lanes {
			if b.errs[k] != nil || b.skip[k] {
				continue
			}
			if len(s.nba) > 0 {
				writes := s.nba
				s.nba = nil
				for _, w := range writes {
					s.commitNBA(w)
				}
				work = true
				continue
			}
			if len(s.seqQueue) > 0 {
				procs := s.seqQueue
				s.seqQueue = nil
				for _, pi := range procs {
					s.inSeq[pi] = false
					if err := s.runProc(s.d.procs[pi]); err != nil {
						b.errs[k] = err
						break
					}
				}
				work = true
				continue
			}
			if s.needSweep {
				work = true
			}
		}
		if !work {
			return
		}
	}
}

// ApplyReset drives the conventional reset sequence on every lane —
// assert for `cycles` clock edges with the other inputs holding, then
// deassert and settle — mirroring Harness.ApplyReset (including its
// "sim: reset:" error wrapping for failures inside the reset cycles).
// Designs without a recognized reset input are untouched.
func (b *Batch) ApplyReset(cycles int) error {
	name, deassert := FindResetDeassert(b.d)
	if name == "" {
		return nil
	}
	idx := b.d.byName[name]
	before := make([]bool, len(b.lanes))
	for k := range b.lanes {
		before[k] = b.errs[k] != nil
		b.skip[k] = false
	}
	for i := 0; i < cycles; i++ {
		for k, s := range b.lanes {
			if b.errs[k] == nil {
				s.set(idx, deassert^1)
			}
		}
		b.finishCycle()
	}
	for k, s := range b.lanes {
		if b.errs[k] != nil {
			if !before[k] {
				b.errs[k] = fmt.Errorf("sim: reset: %w", b.errs[k])
			}
			continue
		}
		s.set(idx, deassert)
	}
	b.settleAll()
	return nil
}
