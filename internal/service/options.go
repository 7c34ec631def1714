// Package service is the verification-as-a-service layer: the unified
// job/options surface shared by the HTTP server (cmd/uvllmd) and the
// batch CLIs (cmd/uvllm, cmd/experiments), a bounded fair-scheduled job
// runner over core.Verify, and the server front-end itself. Before this
// layer, the backend/coverage/formal/lanes/workers knobs were triplicated
// across uvm.Config, core.Options and exp.Config with per-command flag
// parsing; Options is now the single definition and Validate the single
// validation path, so a job means the same thing everywhere it is
// submitted.
package service

import (
	"fmt"

	"uvllm/internal/core"
	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// Options is the one composable knob set of the verification stack: the
// settings that used to be re-declared (and re-validated, and
// allowed to drift) across uvm.Config, core.Options, exp.Config and
// every command's flag block. The old structs keep their fields — they
// are the thin adapter surface the Core method fills in — so existing
// call sites and the differential gates are byte-identical. The
// command-line-only knobs (lanes, workers) live on Flags: a job runs on
// whatever pool the server was started with.
//
// The zero value is valid and means: compiled backend, coverage off,
// formal off. Backend is a string rather than a sim.Backend so the same
// struct is the wire format of the server's JSON API and the target of
// CLI flag parsing; Validate is the one place it is checked.
type Options struct {
	// Backend selects the simulation engine: "compiled" (default, also
	// "") or "event".
	Backend string `json:"backend,omitempty"`
	// Cover enables structural coverage collection (statements,
	// branches, toggles, FSM occupancy) during UVM runs.
	Cover bool `json:"cover,omitempty"`
	// Formal requests a bounded equivalence proof of the delivered
	// source against the golden after a successful verification.
	Formal bool `json:"formal,omitempty"`
	// Induction runs the equivalence proof through k-induction instead
	// of plain BMC: the same bounded base, plus an inductive step that
	// can upgrade the verdict to unbounded ("equivalent for all time").
	// Implies Formal.
	Induction bool `json:"induction,omitempty"`
	// FormalDepth is the proof unrolling depth in cycles (0 = the formal
	// engine's default, at most MaxFormalDepth).
	FormalDepth int `json:"formal_depth,omitempty"`
	// Trace streams the job's hierarchical trace spans: each pipeline
	// phase's span (preprocess, iterations, uvm compile/run, formal
	// depths) is emitted as a "span" event on the job's SSE stream as it
	// closes. The runner traces every job either way (the spans feed
	// /metrics and the iteration events); off, it streams none.
	Trace bool `json:"trace,omitempty"`
}

// MaxFormalDepth bounds the proof unrolling depth. A proof runs with no
// conflict budget and unrolls one more frame of both designs per depth,
// so an unbounded depth lets one submit hold a worker, and grow the
// unrolled graph frame by frame, until a client cancels the job.
const MaxFormalDepth = 256 // 32× formal.DefaultBMCDepth

// MaxLanes bounds the batched lane count: a sim.Batch allocates one
// signal arena per lane up front, so an unbounded value exhausts memory
// before any work starts.
const MaxLanes = 1024 // sixteen 64-lane words

// MaxWorkers bounds the worker pool: the evaluation harness and the
// server's runner start one goroutine per worker up front.
const MaxWorkers = 256

// Validate is the single validation path for the shared knobs: both CLIs
// and the server route every submission through it, so a value rejected
// on the command line is rejected identically over HTTP.
func (o Options) Validate() error {
	if _, err := sim.ParseBackend(o.Backend); err != nil {
		return err
	}
	if o.FormalDepth < 0 || o.FormalDepth > MaxFormalDepth {
		return fmt.Errorf("formal-depth must be in [0, %d], got %d", MaxFormalDepth, o.FormalDepth)
	}
	return nil
}

// SimBackend returns the parsed simulation backend. Unknown names fall
// back to the compiled default — call Validate first to reject them.
func (o Options) SimBackend() sim.Backend {
	b, err := sim.ParseBackend(o.Backend)
	if err != nil {
		return sim.BackendCompiled
	}
	return b
}

// BMCDepth returns the effective formal unrolling depth.
func (o Options) BMCDepth() int {
	if o.FormalDepth > 0 {
		return o.FormalDepth
	}
	return formal.DefaultBMCDepth
}

// Core fills the shared knobs into a core.Options, leaving every
// job-specific field of base untouched.
func (o Options) Core(base core.Options) core.Options {
	base.Backend = o.SimBackend()
	base.Cover = o.Cover
	return base
}

// merge fills zero-valued knobs from the server-level defaults; booleans
// combine with or-semantics (a server started with -cover collects
// coverage for every job, and a job can still opt in on its own).
func (o Options) merge(def Options) Options {
	if o.Backend == "" {
		o.Backend = def.Backend
	}
	o.Cover = o.Cover || def.Cover
	o.Formal = o.Formal || def.Formal
	o.Induction = o.Induction || def.Induction
	o.Trace = o.Trace || def.Trace
	if o.FormalDepth == 0 {
		o.FormalDepth = def.FormalDepth
	}
	return o
}
