package sim

import (
	"fmt"
	"slices"
	"sort"

	"uvllm/internal/cover"
	"uvllm/internal/obs"
)

// Waveform records cycle-sampled values of named signals, the simulator's
// stand-in for a VCD dump. The localization engine reads input values at
// mismatch timestamps out of it (Algorithm 2's getInputValue). Storage is
// columnar: one slice per signal, indexed once by name at construction, so
// the per-cycle hot loop appends without map traffic.
type Waveform struct {
	names  []string
	index  map[string]int
	cols   [][]uint64
	cycles int
}

// NewWaveform creates an empty waveform for the given signal names.
func NewWaveform(names []string) *Waveform {
	w := &Waveform{index: map[string]int{}}
	w.names = append(w.names, names...)
	sort.Strings(w.names)
	w.cols = make([][]uint64, len(w.names))
	for i, n := range w.names {
		w.index[n] = i
	}
	return w
}

// Names returns the recorded signal names, sorted.
func (w *Waveform) Names() []string { return w.names }

// Cycles returns the number of recorded cycles.
func (w *Waveform) Cycles() int { return w.cycles }

// Record appends one cycle of values.
func (w *Waveform) Record(vals map[string]uint64) {
	for i, n := range w.names {
		w.cols[i] = append(w.cols[i], vals[n])
	}
	w.cycles++
}

// Reserve gives every column room for n more cycles, so the next n
// recorded rows append without growing: one allocation per column
// instead of about log2(n) doublings. Each column gets its own
// allocation rather than a share of one slab, which at a few hundred
// cycles would cross Go's 32 KB large-object threshold.
func (w *Waveform) Reserve(n int) {
	for i, c := range w.cols {
		w.cols[i] = slices.Grow(c, n)
	}
}

// recordRow appends one cycle of values aligned with Names() order — the
// allocation-free fast path used by the harness.
func (w *Waveform) recordRow(row []uint64) {
	for i, v := range row {
		w.cols[i] = append(w.cols[i], v)
	}
	w.cycles++
}

// RecordRow appends one cycle of values aligned with Names() order — the
// allocation-free alternative to Record for callers that maintain the
// sorted layout themselves (the bit-parallel lane engine's per-lane rows).
func (w *Waveform) RecordRow(row []uint64) { w.recordRow(row) }

// At returns the value of name at cycle, or 0 when out of range.
func (w *Waveform) At(name string, cycle int) uint64 {
	i, ok := w.index[name]
	if !ok || cycle < 0 || cycle >= len(w.cols[i]) {
		return 0
	}
	return w.cols[i][cycle]
}

// ValuesAt returns every recorded signal's value at cycle.
func (w *Waveform) ValuesAt(cycle int) map[string]uint64 {
	out := make(map[string]uint64, len(w.names))
	for _, n := range w.names {
		out[n] = w.At(n, cycle)
	}
	return out
}

// portRef is a top-level port resolved to its arena index once.
type portRef struct {
	name string
	idx  int
}

// Harness drives a simulator with a cycle-based protocol: apply inputs,
// let combinational logic settle, pulse the clock, sample outputs. It is
// the glue between the Go UVM components and the RTL simulator. Port
// and clock arena indices are resolved at construction, so per-cycle
// clocking and sampling do no name lookups. Stimulus enters either as a row aligned with Ports()
// (CycleRow, the same layout as Batch) or as a map (Cycle); both run the
// one cycle protocol after application.
type Harness struct {
	Sim   *Instance
	Clock string // clock input name, fixed by NewHarness; empty for purely combinational DUTs
	Wave  *Waveform
	cycle int

	clockIdx int             // arena index of Clock, -1 when it names no signal
	inPorts  []portRef       // non-clock inputs, declaration order — the row layout
	outPorts []portRef       // top-level outputs
	recIdx   []int           // arena index per recorded port, in Wave.Names() order (-1 = unknown)
	recRow   []uint64        // scratch row reused every cycle
	inputSet map[string]bool // top-level input names
	cycles   *obs.Counter    // optional per-cycle counter; nil = untracked
}

// ObserveCycles attaches a registry counter incremented once per Cycle,
// the simulation loop's contribution to the observability layer. A nil
// counter (the default) keeps the hot loop at its uninstrumented cost —
// the increment degrades to obs.Counter's nil-receiver fast path, which
// the BenchmarkSimCompiled / BenchmarkSimCompiledObs benchguard pair
// holds to within noise of each other.
func (h *Harness) ObserveCycles(c *obs.Counter) { h.cycles = c }

// sortedExtraKeys returns the stimulus keys that are not top-level inputs
// (nor the clock), sorted for deterministic application order.
func sortedExtraKeys(inputs map[string]uint64, inputSet map[string]bool, clock string) []string {
	var extra []string
	for name := range inputs {
		if name == clock || inputSet[name] {
			continue
		}
		extra = append(extra, name)
	}
	sort.Strings(extra)
	return extra
}

// NewHarness wraps sim with the given clock input (may be ""). All
// top-level ports are recorded in the waveform.
func NewHarness(s *Instance, clock string) *Harness {
	var names []string
	for _, p := range s.Design().Inputs() {
		names = append(names, p.Name)
	}
	for _, p := range s.Design().Outputs() {
		names = append(names, p.Name)
	}
	h := &Harness{Sim: s, Clock: clock, Wave: NewWaveform(names), inputSet: map[string]bool{}, clockIdx: -1}
	if idx, ok := s.d.byName[clock]; ok {
		h.clockIdx = idx
	}
	for _, p := range s.Design().Inputs() {
		h.inputSet[p.Name] = true
		if idx, ok := s.d.byName[p.Name]; ok && p.Name != clock {
			h.inPorts = append(h.inPorts, portRef{name: p.Name, idx: idx})
		}
	}
	for _, p := range s.Design().Outputs() {
		if idx, ok := s.d.byName[p.Name]; ok {
			h.outPorts = append(h.outPorts, portRef{name: p.Name, idx: idx})
		}
	}
	for _, n := range h.Wave.Names() {
		idx := -1
		if i, ok := s.d.byName[n]; ok {
			idx = i
		}
		h.recIdx = append(h.recIdx, idx)
	}
	h.recRow = make([]uint64, len(h.recIdx))
	return h
}

// Ports returns the row stimulus layout: the non-clock inputs in
// declaration order, the same layout as Batch.Ports. CycleRow rows must
// align with this slice.
func (h *Harness) Ports() []PortInfo {
	out := make([]PortInfo, 0, len(h.inPorts))
	for _, pr := range h.inPorts {
		out = append(out, PortInfo{Name: pr.name, Width: h.Sim.d.sigs[pr.idx].width})
	}
	return out
}

// CycleRow drives one cycle with every non-clock input taken from row,
// aligned with Ports() — Cycle without the per-cycle map: no name
// hashing, no output map. It applies the row in declaration order, which
// is the order Cycle applies a map holding exactly those inputs, so the
// two produce byte-identical traces, waveforms and coverage. Read the
// outputs with OutputRow.
func (h *Harness) CycleRow(row []uint64) error {
	if len(row) != len(h.inPorts) {
		return fmt.Errorf("sim: cycle row has %d values, want %d", len(row), len(h.inPorts))
	}
	for i, pr := range h.inPorts {
		h.Sim.set(pr.idx, row[i])
	}
	return h.step()
}

// Cycle applies inputs, advances one clock cycle (or just settles for
// combinational designs), records the waveform sample and returns the
// top-level output values. Inputs absent from the map keep their values;
// keys naming internal signals are honored; the clock key is ignored.
//
// Inputs are applied in port declaration order, not map order: on designs
// whose comb state is glitch-count sensitive (self-read @(*) blocks), the
// Set sequence determines the event queue's walk, and Go's randomized map
// iteration would make identical stimulus produce different traces from
// run to run (found by the rtlgen differential fuzzer).
func (h *Harness) Cycle(inputs map[string]uint64) (map[string]uint64, error) {
	if err := h.applyMap(inputs); err != nil {
		return nil, err
	}
	if err := h.step(); err != nil {
		return nil, err
	}
	return h.Outputs(), nil
}

// applyMap applies map stimulus: declared inputs in declaration order,
// then leftover keys in sorted order.
func (h *Harness) applyMap(inputs map[string]uint64) error {
	applied := 0
	for _, p := range h.Sim.Design().Inputs() {
		v, ok := inputs[p.Name]
		if !ok || p.Name == h.Clock {
			continue
		}
		applied++
		if err := h.Sim.Set(p.Name, v); err != nil {
			return err
		}
	}
	expect := len(inputs)
	if h.Clock != "" {
		if _, ok := inputs[h.Clock]; ok {
			expect--
		}
	}
	if applied != expect {
		// Leftover keys name internal signals (still honored, in sorted
		// order) or unknown signals (still an error).
		for _, name := range sortedExtraKeys(inputs, h.inputSet, h.Clock) {
			if err := h.Sim.Set(name, inputs[name]); err != nil {
				return err
			}
		}
	}
	return nil
}

// step runs the cycle protocol after stimulus application: settle,
// exec-coverage sample, clock pulse, state-coverage sample, waveform row.
func (h *Harness) step() error {
	if err := h.Sim.Settle(); err != nil {
		return err
	}
	if h.Sim.cov != nil {
		// Pre-edge instant: inputs applied, combinational logic settled —
		// the state every posedge process observes. Statement and branch
		// coverage samples here.
		h.Sim.coverSampleExec()
	}
	if h.Clock != "" {
		if h.clockIdx < 0 {
			return h.Sim.Set(h.Clock, 1) // the unknown-signal error
		}
		h.Sim.set(h.clockIdx, 1)
		if err := h.Sim.Settle(); err != nil {
			return err
		}
		h.Sim.set(h.clockIdx, 0)
		if err := h.Sim.Settle(); err != nil {
			return err
		}
	}
	if h.Sim.cov != nil {
		// Post-cycle instant: NBAs committed, everything settled. Toggle
		// and FSM occupancy coverage samples here.
		h.Sim.coverSampleState()
	}
	for i, idx := range h.recIdx {
		if idx >= 0 {
			h.recRow[i] = h.Sim.vals[idx]
		} else {
			h.recRow[i] = 0
		}
	}
	h.Wave.recordRow(h.recRow)
	h.cycle++
	h.cycles.Inc()
	return nil
}

// CycleCount returns the number of cycles driven so far.
func (h *Harness) CycleCount() int { return h.cycle }

// EnableCover switches structural coverage collection on for the
// harnessed instance, automatically excluding the harness clock from the
// toggle universe (the clock is low at both sample instants, so its high
// phase is unobservable by construction). A zero CoverOptions disables
// collection.
func (h *Harness) EnableCover(opts CoverOptions) error {
	if opts.Any() && h.Clock != "" {
		opts.ExcludeSignals = append(append([]string(nil), opts.ExcludeSignals...), h.Clock)
	}
	return h.Sim.EnableCover(opts)
}

// Coverage returns the accumulated structural coverage map, or nil when
// coverage is not enabled.
func (h *Harness) Coverage() *cover.Map { return h.Sim.Coverage() }

// Outputs samples the current top-level outputs without advancing time.
func (h *Harness) Outputs() map[string]uint64 {
	outs := make(map[string]uint64, len(h.outPorts))
	for _, p := range h.outPorts {
		outs[p.name] = h.Sim.vals[p.idx]
	}
	return outs
}

// OutputRow samples the outputs into buf (grown as needed) in output
// declaration order — the allocation-free counterpart of Outputs, with
// the same layout as Batch.OutputRow.
func (h *Harness) OutputRow(buf []uint64) []uint64 {
	buf = buf[:0]
	for _, p := range h.outPorts {
		buf = append(buf, h.Sim.vals[p.idx])
	}
	return buf
}

// FindClock guesses the clock input of a design by conventional names.
func FindClock(d *Design) string {
	for _, cand := range []string{"clk", "clock", "clk_in", "i_clk"} {
		for _, p := range d.Inputs() {
			if p.Name == cand {
				return p.Name
			}
		}
	}
	return ""
}

// FindResetDeassert returns the conventional reset input together with
// the value that deasserts it, or "" when the design has none. This is
// the single definition of the frozen-reset protocol value shared by
// the formal engine and its simulation agreement probes.
func FindResetDeassert(d *Design) (string, uint64) {
	name, activeLow := FindReset(d)
	if name == "" {
		return "", 0
	}
	if activeLow {
		return name, 1
	}
	return name, 0
}

// FindReset returns the reset input name and whether it is active low,
// guessed by conventional names.
func FindReset(d *Design) (string, bool) {
	for _, p := range d.Inputs() {
		switch p.Name {
		case "rst_n", "rstn", "reset_n", "nrst", "arstn":
			return p.Name, true
		}
	}
	for _, p := range d.Inputs() {
		switch p.Name {
		case "rst", "reset", "arst":
			return p.Name, false
		}
	}
	return "", false
}

// ApplyReset drives the reset sequence: assert reset for cycles clock
// edges with the other inputs holding, then deassert and settle. The
// reset column is written through its arena index, as CycleRow writes a
// row, so no stimulus or output map is built per cycle. A failure inside
// the reset cycles is wrapped "sim: reset:".
func (h *Harness) ApplyReset(cycles int) error {
	name, deassert := FindResetDeassert(h.Sim.Design())
	if name == "" {
		return nil
	}
	idx := h.Sim.d.byName[name]
	for i := 0; i < cycles; i++ {
		h.Sim.set(idx, deassert^1)
		if err := h.step(); err != nil {
			return fmt.Errorf("sim: reset: %w", err)
		}
	}
	h.Sim.set(idx, deassert)
	return h.Sim.Settle()
}
