package sim

import (
	"fmt"
	"sync"

	"uvllm/internal/verilog"
)

// Program is the immutable product of elaboration and compilation: the
// design tables, the compiled closure program (on the compiled backend),
// the levelization schedule and the fallback reason. A Program carries no
// simulation state and is safe to share between goroutines; per-run state
// lives in the Instances it creates. Compiling once and instantiating many
// times is the amortization lever of the whole pipeline — every UVM run,
// repair iteration, baseline and differential check re-simulates sources
// it has already compiled.
type Program struct {
	d         *Design
	backend   Backend
	code      *program // compiled closures; nil on the event-driven backend
	levelized bool

	// Structural-coverage plans by harness clock, each built on first use
	// (cover.go).
	coverMu    sync.Mutex
	coverPlans map[string]*coverPlan
}

// Compile elaborates top in f and, on the compiled backend, lowers the
// design into the closure program. No simulation state is created and no
// initial blocks run; use NewInstance for that.
func Compile(f *verilog.SourceFile, top string, backend Backend) (*Program, error) {
	d, err := Elaborate(f, top)
	if err != nil {
		return nil, err
	}
	p := &Program{d: d, backend: backend}
	if backend == BackendCompiled {
		// The compiler only needs the design tables and a zeroed arena for
		// constant folding (constOnly guards every staticEval, so no signal
		// value is ever read); the scratch instance never simulates.
		scratch := &Instance{d: d, vals: make([]uint64, len(d.sigs))}
		p.code = compileProgram(scratch)
		p.levelized = p.code.clean()
	}
	return p, nil
}

// CompileSource parses src and compiles module top. It returns an error
// for syntax errors, making it usable as the pipeline's "does it compile"
// gate exactly like CompileAndNew, without creating simulation state.
func CompileSource(src, top string, backend Backend) (*Program, error) {
	f, errs := verilog.Parse(src)
	return compileParsed(f, errs, top, backend)
}

// compileParsed compiles top from one parse's result; the first syntax
// error, if any, is the error.
func compileParsed(f *verilog.SourceFile, errs []verilog.SyntaxError, top string, backend Backend) (*Program, error) {
	if len(errs) > 0 {
		return nil, fmt.Errorf("sim: %s", errs[0].Error())
	}
	return Compile(f, top, backend)
}

// Design returns the elaborated design.
func (p *Program) Design() *Design { return p.d }

// Backend returns the engine the program was compiled for.
func (p *Program) Backend() Backend { return p.backend }

// Levelized reports whether instances of this program run the levelized
// straight-line sweep.
func (p *Program) Levelized() bool { return p.levelized }

// FallbackReason explains why instances are not running the levelized
// sweep ("" when they are, or on the event-driven backend).
func (p *Program) FallbackReason() string {
	if p.code == nil {
		return ""
	}
	return p.code.reason
}

// NewInstance allocates fresh simulation state for the program (signal
// arena, memories, event queues, NBA buffer), runs the initial blocks and
// settles. Instances of one Program are independent: any number may run
// concurrently on separate goroutines.
func (p *Program) NewInstance() (*Instance, error) {
	s := &Instance{
		program:    p,
		d:          p.d,
		code:       p.code,
		levelized:  p.levelized,
		backend:    p.backend,
		vals:       make([]uint64, len(p.d.sigs)),
		mems:       make([][]uint64, len(p.d.sigs)),
		inQueue:    make([]bool, len(p.d.procs)),
		inSeq:      make([]bool, len(p.d.procs)),
		running:    -1,
		DeltaLimit: 10000,
	}
	for i, si := range p.d.sigs {
		if si.isMem {
			s.mems[i] = make([]uint64, si.depth)
		}
	}
	if s.levelized {
		s.dirty = make([]bool, len(p.d.procs))
	}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Snapshot is a point-in-time copy of one Instance's complete mutable
// state: signal arena, memories, pending event queues and the NBA buffer.
// Snapshots are deep copies — restoring one multiple times, or after the
// instance has moved on, always reproduces the captured state.
//
// Coverage contract: the accumulated coverage map is NOT part of a
// snapshot — coverage is observational, and rewinding an instance does
// not un-observe its history. The FSM sampler's transition history (the
// previous sampled state per inferred FSM) IS captured: it describes the
// trajectory being rewound, and restoring it keeps the first post-restore
// sample from recording a phantom transition out of the pre-restore
// state. A snapshot taken while coverage was off restores into a covering
// instance by clearing that history instead (the next sample records
// occupancy only, never a fabricated transition).
type Snapshot struct {
	program   *Program
	vals      []uint64
	mems      [][]uint64
	combQueue []int
	inQueue   []bool
	seqQueue  []int
	inSeq     []bool
	nba       []nbaWrite
	dirty     []bool
	needSweep bool

	covPrev []uint64 // FSM sampler history; nil when coverage was off
	covSeen []bool
}

// Snapshot captures the instance's state. Call it between Settle
// boundaries (not from inside a running process). See the Snapshot type
// for the coverage contract.
func (s *Instance) Snapshot() *Snapshot {
	sn := &Snapshot{
		program:   s.program,
		vals:      append([]uint64(nil), s.vals...),
		mems:      make([][]uint64, len(s.mems)),
		combQueue: append([]int(nil), s.combQueue...),
		inQueue:   append([]bool(nil), s.inQueue...),
		seqQueue:  append([]int(nil), s.seqQueue...),
		inSeq:     append([]bool(nil), s.inSeq...),
		nba:       append([]nbaWrite(nil), s.nba...),
		dirty:     append([]bool(nil), s.dirty...),
		needSweep: s.needSweep,
	}
	for i, mem := range s.mems {
		if mem != nil {
			sn.mems[i] = append([]uint64(nil), mem...)
		}
	}
	if ic := s.cov; ic != nil {
		sn.covPrev = append([]uint64(nil), ic.fsmPrev...)
		sn.covSeen = append([]bool(nil), ic.fsmSeen...)
	}
	return sn
}

// Restore rewinds the instance to a previously captured snapshot. The
// snapshot must come from an instance of the same Program.
func (s *Instance) Restore(sn *Snapshot) error {
	if sn == nil {
		return fmt.Errorf("sim: nil snapshot")
	}
	if sn.program != s.program || len(sn.vals) != len(s.vals) {
		return fmt.Errorf("sim: snapshot belongs to a different program")
	}
	copy(s.vals, sn.vals)
	for i, mem := range sn.mems {
		if mem != nil {
			copy(s.mems[i], mem)
		}
	}
	s.combQueue = append(s.combQueue[:0], sn.combQueue...)
	copy(s.inQueue, sn.inQueue)
	s.seqQueue = append(s.seqQueue[:0], sn.seqQueue...)
	copy(s.inSeq, sn.inSeq)
	s.nba = append(s.nba[:0], sn.nba...)
	copy(s.dirty, sn.dirty)
	s.needSweep = sn.needSweep
	s.inSweep = false
	s.running = -1
	if ic := s.cov; ic != nil && len(ic.fsmSeen) > 0 {
		if len(sn.covSeen) == len(ic.fsmSeen) {
			copy(ic.fsmPrev, sn.covPrev)
			copy(ic.fsmSeen, sn.covSeen)
		} else {
			// The snapshot predates coverage (or was taken under another
			// clock's FSM universe): the transition history along the restored
			// trajectory is unknowable, so restart it rather than fabricate
			// a transition out of the pre-restore state.
			for i := range ic.fsmSeen {
				ic.fsmSeen[i] = false
			}
		}
	}
	return nil
}
