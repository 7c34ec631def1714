// Package uvm re-creates the Universal Verification Methodology testbench
// structure of paper Fig. 3 in Go: Sequences feed a Sequencer, a Driver
// applies transactions to the DUT through the cycle harness, Monitors
// sample both the DUT and the reference model, and a Scoreboard compares
// them, producing the pass rate that drives UVLLM's rollback mechanism and
// a UVM-format text log that the post-processing stage parses.
package uvm

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"uvllm/internal/cover"
	"uvllm/internal/refmodel"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// Transaction is one cycle of stimulus at the DUT boundary.
type Transaction struct {
	Cycle  int
	Inputs map[string]uint64
}

// Sequence produces transactions, simulating real-world operation patterns
// (paper Fig. 3's "Case (Sequence)").
type Sequence interface {
	// Next returns the next stimulus vector, or ok=false when exhausted.
	// It must not retain rng, which Materialize recycles.
	Next(rng *rand.Rand) (map[string]uint64, bool)
	// Len returns the total number of transactions the sequence produces.
	Len() int
}

// RandomSequence drives n constrained-random vectors across the given
// input ports, with the reset held inactive (reset is exercised separately
// by the environment's reset phase and periodic reset pulses).
type RandomSequence struct {
	Ports      []sim.PortInfo
	N          int
	ResetName  string
	ResetEvery int // assert reset for one cycle every k transactions; 0 = never
	emitted    int
}

// NewRandomSequence returns the pipeline's random stimulus for design d
// clocked by clock: n vectors over every non-clock input, in
// declaration order, with sim.FindReset's reset pulsed every 50
// vectors. The repair loop's UVM evaluations, fault observation and the
// lane observation all draw it.
func NewRandomSequence(d *sim.Design, clock string, n int) *RandomSequence {
	var ports []sim.PortInfo
	for _, p := range d.Inputs() {
		if p.Name != clock {
			ports = append(ports, p)
		}
	}
	name, _ := sim.FindReset(d)
	return &RandomSequence{Ports: ports, N: n, ResetName: name, ResetEvery: 50}
}

// Next implements Sequence.
func (s *RandomSequence) Next(rng *rand.Rand) (map[string]uint64, bool) {
	if s.emitted >= s.N {
		return nil, false
	}
	s.emitted++
	in := map[string]uint64{}
	for _, p := range s.Ports {
		in[p.Name] = rng.Uint64() & verilog.Mask(p.Width)
	}
	if s.ResetName != "" {
		if s.ResetEvery > 0 && s.emitted%s.ResetEvery == 0 {
			in[s.ResetName] = 0
		} else {
			in[s.ResetName] = 1
		}
	}
	return in, true
}

// Len implements Sequence.
func (s *RandomSequence) Len() int { return s.N }

// fillRows materializes the remaining vectors straight into st's rows
// when every vector's keys (Ports plus ResetName) are exactly the layout
// col describes, drawing from rng exactly as Next does. It reports false,
// drawing nothing, when the vectors do not fit.
func (s *RandomSequence) fillRows(rng *rand.Rand, st *Stimulus, col map[string]int) bool {
	pos := make([]int, len(s.Ports))
	masks := make([]uint64, len(s.Ports))
	keys := make(map[string]bool, len(col))
	for j, p := range s.Ports {
		c, ok := col[p.Name]
		if !ok {
			return false
		}
		pos[j], masks[j] = c, verilog.Mask(p.Width)
		keys[p.Name] = true
	}
	rpos := -1
	if s.ResetName != "" {
		c, ok := col[s.ResetName]
		if !ok {
			return false
		}
		rpos = c
		keys[s.ResetName] = true
	}
	if len(keys) != len(col) {
		return false
	}
	for ; s.emitted < s.N; st.n++ {
		s.emitted++
		start := len(st.rows)
		st.rows = append(st.rows, make([]uint64, len(col))...)
		row := st.rows[start:]
		for j, c := range pos {
			row[c] = rng.Uint64() & masks[j]
		}
		if rpos >= 0 {
			row[rpos] = 1
			if s.ResetEvery > 0 && s.emitted%s.ResetEvery == 0 {
				row[rpos] = 0
			}
		}
	}
	return true
}

// DirectedSequence plays back a fixed vector list — the style of finite
// testbench the MEIC baseline uses (and the source of its overfitting).
// It draws no randomness: Materialize passes it a nil RNG.
type DirectedSequence struct {
	Vectors []map[string]uint64
	pos     int
}

// Next implements Sequence.
func (s *DirectedSequence) Next(_ *rand.Rand) (map[string]uint64, bool) {
	if s.pos >= len(s.Vectors) {
		return nil, false
	}
	v := s.Vectors[s.pos]
	s.pos++
	return v, true
}

// Len implements Sequence.
func (s *DirectedSequence) Len() int { return len(s.Vectors) }

// resetCycles is the length of Run's reset phase.
const resetCycles = 2

// Mismatch is one scoreboard discrepancy: the UVM_ERROR record that the
// localization engine consumes (mismatch timestamp MT, signal MS).
type Mismatch struct {
	Time     int // cycle number
	Signal   string
	Expected uint64
	Actual   uint64
}

// Scoreboard accumulates per-transaction comparisons.
type Scoreboard struct {
	Total      int
	Passed     int
	Mismatches []Mismatch

	// MaxMismatches caps the recorded mismatch list (the log would
	// otherwise explode for badly broken DUTs). Counting continues.
	MaxMismatches int
}

// CompareRow records one transaction — golden row i against the DUT's
// output row actual — and reports whether it passed. cols binds the two
// layouts (Trace.Columns): the DUT value of golden.Names()[j] is
// actual[cols[j]], or 0 when cols[j] is -1. Mismatches are recorded in
// golden.Names() order, which is sorted.
func (sb *Scoreboard) CompareRow(cycle int, golden *Trace, i int, cols []int, actual []uint64) bool {
	sb.Total++
	pass := true
	for j, ev := range golden.Row(i) {
		var av uint64
		if c := cols[j]; c >= 0 {
			av = actual[c]
		}
		if av != ev {
			pass = false
			if sb.MaxMismatches == 0 || len(sb.Mismatches) < sb.MaxMismatches {
				sb.Mismatches = append(sb.Mismatches, Mismatch{
					Time: cycle, Signal: golden.names[j], Expected: ev, Actual: av,
				})
			}
		}
	}
	if pass {
		sb.Passed++
	}
	return pass
}

// PassRate is the fraction of passing transactions in [0,1]; an empty run
// scores 0.
func (sb *Scoreboard) PassRate() float64 {
	if sb.Total == 0 {
		return 0
	}
	return float64(sb.Passed) / float64(sb.Total)
}

// Agent bundles the sequencer/driver/monitor roles of a UVM agent. The
// in-agent drives DUT inputs; the out-agent's monitor is realized by the
// harness output sampling.
type Agent struct {
	Name string
	rng  *rand.Rand
}

// Env is the UVM environment: DUT harness, reference model, scoreboard and
// coverage collector.
type Env struct {
	DUT      *sim.Harness
	Ref      refmodel.Model
	Score    *Scoreboard
	Cov      *Coverage
	InAgent  *Agent
	OutAgent *Agent

	log     strings.Builder
	fatal   error
	seed    int64
	refName string
	memo    *TraceMemo
}

// Config selects how an Env is built.
type Config struct {
	Source    string // DUT Verilog source
	Top       string // top module name
	Clock     string // clock input, "" for combinational
	RefName   string // reference model name (dataset module name)
	Seed      int64
	MaxErrors int // mismatch record cap (default 64)
	// Backend selects the simulation engine (zero value: compiled).
	Backend sim.Backend
	// Cover enables structural coverage collection on the DUT instance
	// (statements, branches, toggles, FSM occupancy — see
	// sim.CoverOptions). The zero value keeps coverage off, which costs
	// nothing on the simulation hot path.
	Cover sim.CoverOptions

	// Cache, when set, routes compilation through the content-addressed
	// compile cache.
	Cache *sim.Cache
	// Memo, when set, serves the scoreboard's expected outputs from the
	// golden-trace memo instead of stepping a fresh reference model.
	Memo *TraceMemo
}

// NewEnv elaborates the DUT and builds the environment. Elaboration
// failures (syntax errors, unsupported constructs, oscillation at time 0)
// are returned as errors; the caller treats them as simulation failures.
func NewEnv(cfg Config) (*Env, error) {
	var s *sim.Instance
	var err error
	if cfg.Cache != nil {
		s, err = cfg.Cache.Instance(cfg.Source, cfg.Top, cfg.Backend)
	} else {
		s, err = sim.CompileAndNewBackend(cfg.Source, cfg.Top, cfg.Backend)
	}
	if err != nil {
		return nil, err
	}
	ref, err := refmodel.New(cfg.RefName)
	if err != nil {
		return nil, err
	}
	maxErr := cfg.MaxErrors
	if maxErr == 0 {
		maxErr = 64
	}
	env := &Env{
		DUT:      sim.NewHarness(s, cfg.Clock),
		Ref:      ref,
		Score:    &Scoreboard{MaxMismatches: maxErr},
		InAgent:  &Agent{Name: "in_agt"},
		OutAgent: &Agent{Name: "out_agt"},
		seed:     cfg.Seed,
		refName:  cfg.RefName,
		memo:     cfg.Memo,
	}
	env.Cov = NewCoverage(s.Design())
	if cfg.Cover.Any() {
		if err := env.DUT.EnableCover(cfg.Cover); err != nil {
			return nil, err
		}
	}
	env.logf("UVM_INFO @ 0: uvm_test_top.env [RNTST] running test on %s (seed %d)", cfg.Top, cfg.Seed)
	return env, nil
}

// Run drives the sequence to completion (or until the DUT dies), filling
// the scoreboard, coverage and log. It returns the final pass rate.
//
// The stimulus is materialized up front as rows over the harness layout
// (identical vectors to the lazy walk: the sequence sees the same seeded
// RNG stream), and the expected outputs for the whole stream are one
// golden trace: from the memo when the environment carries one —
// computed once per distinct (model, stimulus) anywhere in the process —
// else from stepping the environment's reference model. Each cycle then
// drives a row, reads the output row and scores and covers by position;
// a vector that does not fit the row layout takes Harness.Cycle for that
// cycle.
func (e *Env) Run(seq Sequence) float64 {
	stim := Materialize(seq, e.seed, e.DUT.Ports())
	resetName, _ := sim.FindReset(e.DUT.Sim.Design())
	cycles := stim.Len()
	if resetName != "" {
		cycles += resetCycles
	}
	e.DUT.Wave.Reserve(cycles)

	// Reset phase.
	if resetName != "" {
		if err := e.DUT.ApplyReset(resetCycles); err != nil {
			e.fatalf("reset phase: %v", err)
			return 0
		}
	}
	golden, err := e.golden(stim, resetName != "")
	if err != nil {
		e.fatalf("%v", err)
		return 0
	}

	cols := golden.Columns(e.DUT.Sim.Design().Outputs())
	inCols := e.Cov.inputColumns(stim.Ports)
	var out []uint64
	var line []byte
	for i := 0; i < stim.Len(); i++ {
		cycle := e.DUT.CycleCount()
		row := stim.Row(i)
		if row != nil {
			err = e.DUT.CycleRow(row)
		} else {
			_, err = e.DUT.Cycle(stim.mapAt(i))
		}
		if err != nil {
			e.fatalf("cycle %d: %v", cycle, err)
			return e.Score.PassRate()
		}
		out = e.DUT.OutputRow(out)
		if row != nil {
			e.Cov.sampleRow(inCols, row)
		} else {
			e.Cov.sampleInputs(stim.mapAt(i))
		}
		e.Cov.sampleOutputs(out)
		if !e.Score.CompareRow(cycle, golden, i, cols, out) {
			for _, mm := range e.mismatchesAt(cycle) {
				line = appendMismatchLine(line[:0], mm)
				e.log.Write(line)
			}
		}
	}
	e.logf("UVM_INFO @ %d: uvm_test_top.env.scoreboard [SCBD] pass_rate=%.2f%% (%d/%d) coverage=%.1f%%",
		e.DUT.CycleCount(), e.Score.PassRate()*100, e.Score.Passed, e.Score.Total, e.Cov.Percent())
	if m := e.DUT.Coverage(); m != nil {
		e.logf("UVM_INFO @ %d: uvm_test_top.env.cover [COV] structural=%.1f%% (%d/%d points)",
			e.DUT.CycleCount(), m.Percent(), m.Hit(), m.Len())
	}
	return e.Score.PassRate()
}

// golden returns the expected-output trace for stim: the memo's shared
// trace when the environment has a memo — Run only reads it, so the
// canonical memoized rows stay untouched — else a trace stepped from the
// environment's own reference model.
func (e *Env) golden(stim *Stimulus, reset bool) (*Trace, error) {
	if e.memo != nil {
		return e.memo.shared(e.refName, reset, stim)
	}
	return computeTrace(e.Ref, reset, stim)
}

// mismatchesAt returns the recorded mismatches of cycle: the tail of
// Score.Mismatches, which CompareRow appends in cycle order. The result
// aliases the scoreboard.
func (e *Env) mismatchesAt(cycle int) []Mismatch {
	ms := e.Score.Mismatches
	i := len(ms)
	for i > 0 && ms[i-1].Time == cycle {
		i--
	}
	return ms[i:]
}

// appendMismatchLine appends the scoreboard's log line for mm, the bytes
// of fmt's
//
//	"UVM_ERROR @ %d: uvm_test_top.env.scoreboard [SCBD] mismatch signal=%s expected=0x%x actual=0x%x\n"
//
// without fmt's boxing and formatting state.
func appendMismatchLine(dst []byte, mm Mismatch) []byte {
	dst = append(dst, "UVM_ERROR @ "...)
	dst = strconv.AppendInt(dst, int64(mm.Time), 10)
	dst = append(dst, ": uvm_test_top.env.scoreboard [SCBD] mismatch signal="...)
	dst = append(dst, mm.Signal...)
	dst = append(dst, " expected=0x"...)
	dst = strconv.AppendUint(dst, mm.Expected, 16)
	dst = append(dst, " actual=0x"...)
	dst = strconv.AppendUint(dst, mm.Actual, 16)
	return append(dst, '\n')
}

func (e *Env) logf(format string, args ...interface{}) {
	fmt.Fprintf(&e.log, format, args...)
	e.log.WriteByte('\n')
}

func (e *Env) fatalf(format string, args ...interface{}) {
	err := fmt.Errorf(format, args...)
	e.fatal = err
	e.logf("UVM_FATAL @ %d: uvm_test_top.env [SIM] %v", e.DUT.CycleCount(), err)
}

// Log returns the UVM-format text log of the run.
func (e *Env) Log() string { return e.log.String() }

// Fatal returns the simulation error that aborted the run, if any.
func (e *Env) Fatal() error { return e.fatal }

// Waveform exposes the recorded DUT waveform for the localization engine.
func (e *Env) Waveform() *sim.Waveform { return e.DUT.Wave }

// StructCoverage returns the structural coverage map accumulated by the
// run, or nil when Config.Cover left structural coverage off.
func (e *Env) StructCoverage() *cover.Map { return e.DUT.Coverage() }
