package service

import (
	"flag"
	"fmt"
)

// FlagMask selects which of the shared knobs a command binds. Each
// command registers only the flags it historically had; the names, help
// strings, defaults and validation come from one place so the CLIs and
// the server cannot drift.
type FlagMask uint

// Flag selectors.
const (
	// FlagBackend binds -backend.
	FlagBackend FlagMask = 1 << iota
	// FlagCover binds -cover.
	FlagCover
	// FlagFormal binds -formal, -induction and -formal-depth.
	FlagFormal
	// FlagLanes binds -lanes.
	FlagLanes
	// FlagWorkers binds -workers.
	FlagWorkers
	// FlagAll binds every shared knob.
	FlagAll = FlagBackend | FlagCover | FlagFormal | FlagLanes | FlagWorkers
)

// Flags holds the bound flag targets between Bind (at init) and Options
// (after fs.Parse). Unbound knobs resolve to their zero value.
type Flags struct {
	// Lanes is the -lanes value: batched lane simulation where a command
	// supports it (rtlgen's lane oracle and coverage sweep); 0 or 1 keeps
	// the sequential path. Options checks it against MaxLanes.
	Lanes int
	// Workers is the -workers value: the worker pool of whatever runs
	// the job set — the evaluation harness or the server's runner (0 =
	// NumCPU). Options checks it against MaxWorkers.
	Workers int

	mask        FlagMask
	backend     string
	cover       bool
	formalOn    bool
	induction   bool
	formalDepth int
}

// Bind registers the selected shared knobs on fs with their canonical
// names, defaults and help text. Call before fs.Parse; read the result
// with Options after.
func Bind(fs *flag.FlagSet, mask FlagMask) *Flags {
	f := &Flags{mask: mask, backend: "compiled"}
	if mask&FlagBackend != 0 {
		fs.StringVar(&f.backend, "backend", "compiled", "simulation backend: compiled or event")
	}
	if mask&FlagCover != 0 {
		fs.BoolVar(&f.cover, "cover", false, "collect structural coverage (statements, branches, toggles, FSM) during UVM runs")
	}
	if mask&FlagFormal != 0 {
		fs.BoolVar(&f.formalOn, "formal", false, "after verification, bounded-prove the final source equivalent to the golden (refutation fails the run)")
		fs.BoolVar(&f.induction, "induction", false, "prove by k-induction instead of plain BMC, upgrading closed proofs to unbounded (implies -formal)")
		fs.IntVar(&f.formalDepth, "formal-depth", 0, fmt.Sprintf("formal unrolling depth in cycles (0 = default, at most %d)", MaxFormalDepth))
	}
	if mask&FlagLanes != 0 {
		fs.IntVar(&f.Lanes, "lanes", 0, fmt.Sprintf("batched simulation lanes where supported (0 or 1 = sequential, at most %d)", MaxLanes))
	}
	if mask&FlagWorkers != 0 {
		fs.IntVar(&f.Workers, "workers", 0, fmt.Sprintf("worker pool size (0 = NumCPU, at most %d; results are identical for any value)", MaxWorkers))
	}
	return f
}

// Options validates the parsed flag values through the one shared path
// and returns them as the unified options type. It also checks Lanes and
// Workers, which are command-line knobs only.
func (f *Flags) Options() (Options, error) {
	o := Options{
		Backend:     f.backend,
		Cover:       f.cover,
		Formal:      f.formalOn,
		Induction:   f.induction,
		FormalDepth: f.formalDepth,
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	if f.Lanes < 0 || f.Lanes > MaxLanes {
		return Options{}, fmt.Errorf("lanes must be in [0, %d], got %d", MaxLanes, f.Lanes)
	}
	if f.Workers < 0 || f.Workers > MaxWorkers {
		return Options{}, fmt.Errorf("workers must be in [0, %d], got %d", MaxWorkers, f.Workers)
	}
	return o, nil
}
