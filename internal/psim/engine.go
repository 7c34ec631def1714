package psim

import (
	"fmt"

	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// Engine drives up to 64 lanes of one compiled design bit-parallel: the
// architectural state (every arena signal, every memory word) is stored
// bit-sliced — word b of a signal holds bit b of all 64 lanes — and one
// Machine sweep of the design's single-cycle circuit advances every lane
// by one full harness cycle. Stimulus rows arrive lane-sliced and are
// bit-sliced on the way in (BitSlice); recorded waveform rows are turned
// back on the way out, once per port per cycle.
//
// The protocol is exactly the harness cycle contract (sim.LaneEngine's):
// apply inputs, settle, pulse the clock, record a waveform row with the
// clock low. Lanes are independent simulations; a nil stimulus row masks
// a lane out of a cycle (it neither advances nor records), which is also
// how callers retire short lanes mid-run. On the supported subset
// (formal.NewCircuit succeeds) lanes cannot error: every construct the
// circuit models evaluates totally.
type Engine struct {
	c     *formal.Circuit
	m     *Machine
	d     *sim.Design
	lanes int

	state [][]uint64   // per signal: vecW(width) bit-sliced words
	mems  [][][]uint64 // per memory signal: depth x width bit-sliced words

	record bool
	waves  []*sim.Waveform
	recIdx []int // arena index per recorded name, Waveform Names() order
	outIdx []int // arena index per output, output declaration order

	act01 [][]uint64 // nil when activity tracking is off
	act10 [][]uint64

	stim     [][]uint64 // scratch: per free input, width stimulus words
	applyM   []uint64   // scratch: per free input, lanes applying this cycle
	laneRows [][]uint64 // scratch: per lane, one row in waveform name order
}

var _ sim.LaneEngine = (*Engine)(nil)

// NewEngine builds a bit-parallel engine for 1..64 lanes of p under the
// given clock name (taken literally; "" selects the combinational
// protocol). It returns formal.ErrUnsupported-wrapped errors for designs
// outside the bit-blastable subset — the caller's cue to fall back to
// sim.Batch.
func NewEngine(p *sim.Program, lanes int, clock string) (*Engine, error) {
	if lanes < 1 || lanes > 64 {
		return nil, fmt.Errorf("psim: engine needs 1..64 lanes, got %d", lanes)
	}
	c, err := formal.NewCircuit(p, clock, formal.Options{})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		c: c, m: NewMachine(c.G), d: p.Design(),
		lanes: lanes, record: true,
	}
	for i := range c.Free {
		e.stim = append(e.stim, make([]uint64, len(c.In[i])))
	}
	e.applyM = make([]uint64, len(c.Free))

	e.state = make([][]uint64, len(c.Sigs))
	e.mems = make([][][]uint64, len(c.Sigs))
	for i, sv := range c.Sigs {
		e.state[i] = make([]uint64, len(c.State[i]))
		if sv.IsMem {
			e.mems[i] = make([][]uint64, sv.Depth)
			for dw := 0; dw < sv.Depth; dw++ {
				e.mems[i][dw] = make([]uint64, len(c.StateMem[i][dw]))
			}
		}
	}
	inst, err := p.NewInstance()
	if err != nil {
		return nil, err
	}
	e.Broadcast(inst)

	var names []string
	for _, pt := range e.d.Inputs() {
		names = append(names, pt.Name)
	}
	for _, pt := range e.d.Outputs() {
		names = append(names, pt.Name)
		if idx, ok := e.d.SignalIndex(pt.Name); ok {
			e.outIdx = append(e.outIdx, idx)
		}
	}
	for k := 0; k < lanes; k++ {
		w := sim.NewWaveform(names)
		e.waves = append(e.waves, w)
		if e.recIdx == nil {
			for _, rn := range w.Names() {
				idx := -1
				if i, ok := e.d.SignalIndex(rn); ok {
					idx = i
				}
				e.recIdx = append(e.recIdx, idx)
			}
		}
	}
	e.laneRows = make([][]uint64, lanes)
	for k := range e.laneRows {
		e.laneRows[k] = make([]uint64, len(e.recIdx))
	}
	return e, nil
}

// Lanes returns the lane count.
func (e *Engine) Lanes() int { return e.lanes }

// Ports returns the row stimulus layout: the non-clock inputs in
// declaration order, identical to sim.Batch.Ports.
func (e *Engine) Ports() []sim.PortInfo { return append([]sim.PortInfo(nil), e.c.Free...) }

// Wave returns lane k's recorded waveform (same names and layout as a
// standalone Harness waveform).
func (e *Engine) Wave(k int) *sim.Waveform { return e.waves[k] }

// Err is always nil: on the supported subset a lane cannot error.
func (e *Engine) Err(k int) error { return nil }

// SetRecord switches waveform recording on or off (on by default).
// Scoring-only consumers (the directed-stimulus BitLanes rounds) switch
// it off so speculative cycles do not grow 64 waveforms.
func (e *Engine) SetRecord(on bool) { e.record = on }

// Broadcast re-initializes every lane's state from one concrete instance
// arena: all 64 lanes become exact copies of inst (signals and memories).
// Waveforms are not touched. A freshly constructed engine is broadcast
// from a fresh Instance, matching sim.NewBatch.
func (e *Engine) Broadcast(inst *sim.Instance) {
	for i, sv := range e.c.Sigs {
		Spread(e.state[i], inst.Get(sv.Name))
		if sv.IsMem {
			for dw := 0; dw < sv.Depth; dw++ {
				Spread(e.mems[i][dw], inst.GetMem(sv.Name, dw))
			}
		}
	}
}

// Cycle drives one cycle on every unmasked lane: rows[k] holds lane k's
// stimulus aligned with Ports(). A nil rows[k] masks lane k out of this
// cycle entirely — it neither advances nor records — mirroring
// sim.Batch.Cycle.
func (e *Engine) Cycle(rows [][]uint64) error {
	if len(rows) != e.lanes {
		return fmt.Errorf("psim: cycle: %d rows for %d lanes", len(rows), e.lanes)
	}
	var active uint64
	for k, row := range rows {
		if row == nil {
			continue
		}
		if len(row) != len(e.c.Free) {
			return fmt.Errorf("psim: cycle: lane %d row has %d values, want %d", k, len(row), len(e.c.Free))
		}
		active |= 1 << uint(k)
	}
	var col [64]uint64
	for i := range e.c.Free {
		e.applyM[i] = active
		for k, row := range rows {
			col[k] = 0
			if row != nil {
				col[k] = row[i]
			}
		}
		BitSlice(e.stim[i], col[:e.lanes])
	}
	e.cycleWords(active, false)
	return nil
}

// ApplyReset drives the conventional reset sequence on every lane —
// assert for cycles clock edges (recorded, other inputs holding), then
// deassert and settle without a waveform row — mirroring
// Harness.ApplyReset and sim.Batch.ApplyReset. Designs without a
// recognized reset input are untouched.
func (e *Engine) ApplyReset(cycles int) error {
	name, deassert := sim.FindResetDeassert(e.d)
	if name == "" {
		return nil
	}
	col := -1
	for i, pt := range e.c.Free {
		if pt.Name == name {
			col = i
		}
	}
	if col < 0 {
		return fmt.Errorf("psim: reset input %q is not free", name)
	}
	all := allLanes(e.lanes)
	drive := func(v uint64) {
		clear(e.applyM)
		e.applyM[col] = all
		Spread(e.stim[col], v)
	}
	drive(deassert ^ 1)
	for i := 0; i < cycles; i++ {
		e.cycleWords(all, false)
	}
	// Deassert + settle: inputs applied, combinational logic settled, no
	// clock pulse, no waveform row — the harness's Set+Settle instant.
	drive(deassert)
	e.cycleWords(all, true)
	return nil
}

// allLanes is the active mask covering lanes 0..n-1.
func allLanes(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// cycleWords is the bit-parallel hot path: load the previous state and
// the (stimulus-or-hold) input words into the machine's variables, sweep
// the circuit once, commit the root words back into the lane-sliced state
// under the active mask, and append waveform rows. settleOnly commits the
// circuit's settle roots (input apply + clock-low settle) and never
// records — the reset-deassert instant.
func (e *Engine) cycleWords(active uint64, settleOnly bool) {
	c, m := e.c, e.m
	for i := range c.Sigs {
		sv := c.State[i]
		st := e.state[i]
		for b := range sv {
			m.SetVar(sv[b], st[b])
		}
		if mem := c.StateMem[i]; mem != nil {
			for dw := range mem {
				mw := e.mems[i][dw]
				for b := range mem[dw] {
					m.SetVar(mem[dw][b], mw[b])
				}
			}
		}
	}
	for i := range c.Free {
		held := e.state[c.FreeIdx[i]]
		apply := e.applyM[i]
		inv := c.In[i]
		stim := e.stim[i]
		for b := range inv {
			m.SetVar(inv[b], stim[b]&apply|held[b]&^apply)
		}
	}
	m.Sweep()
	roots, memRoots := c.Next, c.NextMem
	if settleOnly {
		roots, memRoots = c.Settle, c.SettleMem
	}
	for i := range c.Sigs {
		rv := roots[i]
		st := e.state[i]
		if e.act01 != nil && !settleOnly {
			a01, a10 := e.act01[i], e.act10[i]
			for b := range rv {
				old := st[b]
				nw := m.Word(rv[b])&active | old&^active
				a01[b] |= ^old & nw & active
				a10[b] |= old & ^nw & active
				st[b] = nw
			}
		} else {
			for b := range rv {
				st[b] = m.Word(rv[b])&active | st[b]&^active
			}
		}
		if mem := memRoots[i]; mem != nil {
			for dw := range mem {
				mw := e.mems[i][dw]
				for b := range mem[dw] {
					mw[b] = m.Word(mem[dw][b])&active | mw[b]&^active
				}
			}
		}
	}
	if settleOnly || !e.record {
		return
	}
	for ri, idx := range e.recIdx {
		if idx < 0 {
			for k := 0; k < e.lanes; k++ {
				e.laneRows[k][ri] = 0
			}
			continue
		}
		st := e.state[idx]
		if len(st) >= 16 {
			var col [64]uint64
			copy(col[:], st)
			Transpose64(&col)
			for k := 0; k < e.lanes; k++ {
				e.laneRows[k][ri] = col[k]
			}
			continue
		}
		// Narrow signals: gather the few live bit rows per lane instead of
		// paying the transpose's fixed 64-row cost.
		for k := 0; k < e.lanes; k++ {
			e.laneRows[k][ri] = lane(st, k)
		}
	}
	for k := 0; k < e.lanes; k++ {
		if active>>uint(k)&1 == 1 {
			e.waves[k].RecordRow(e.laneRows[k])
		}
	}
}

// lane extracts lane k's value from a bit-sliced word vector.
func lane(words []uint64, k int) uint64 {
	var v uint64
	for b, w := range words {
		v |= (w >> uint(k) & 1) << uint(b)
	}
	return v
}

// OutputRow samples lane k's outputs into buf (grown as needed) in the
// output declaration order, mirroring sim.Batch.OutputRow.
func (e *Engine) OutputRow(k int, buf []uint64) []uint64 {
	buf = buf[:0]
	for _, idx := range e.outIdx {
		buf = append(buf, lane(e.state[idx], k))
	}
	return buf
}

// Get reads lane k's current value of a signal by name (0 when unknown),
// mirroring Instance.Get.
func (e *Engine) Get(k int, name string) uint64 {
	idx, ok := e.d.SignalIndex(name)
	if !ok {
		return 0
	}
	return lane(e.state[idx], k)
}

// GetMem reads lane k's current value of one memory word (0 when unknown
// or out of range), mirroring Instance.GetMem.
func (e *Engine) GetMem(k int, name string, word int) uint64 {
	idx, ok := e.d.SignalIndex(name)
	if !ok || e.mems[idx] == nil || word < 0 || word >= len(e.mems[idx]) {
		return 0
	}
	return lane(e.mems[idx][word], k)
}

// StartActivity clears and enables the per-signal toggle accumulators:
// from now on every committed cycle ORs each lane's 0->1 and 1->0 bit
// transitions into the activity words. The directed-stimulus scorer uses
// these as a cheap novelty proxy for speculative candidate lanes.
func (e *Engine) StartActivity() {
	e.act01 = make([][]uint64, len(e.state))
	e.act10 = make([][]uint64, len(e.state))
	for i := range e.state {
		e.act01[i] = make([]uint64, len(e.state[i]))
		e.act10[i] = make([]uint64, len(e.state[i]))
	}
}

// Activity returns the accumulated toggle words of one signal (arena
// index): t01[b] bit k set means lane k saw bit b rise since
// StartActivity, t10 likewise for falls. Nil before StartActivity.
func (e *Engine) Activity(sig int) (t01, t10 []uint64) {
	if e.act01 == nil {
		return nil, nil
	}
	return e.act01[sig], e.act10[sig]
}
