package service

import (
	"math"
	"strings"
	"testing"

	"uvllm/internal/core"
	"uvllm/internal/exp"
	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// TestOptionsValidate is the table test for the single shared validation
// path: every front-end (both CLIs and the HTTP server) rejects exactly
// these values with messages naming the offending knob.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		o       Options
		wantErr string // "" = valid
	}{
		{"zero value", Options{}, ""},
		{"explicit compiled", Options{Backend: "compiled"}, ""},
		{"event backend", Options{Backend: "event"}, ""},
		{"event-driven alias", Options{Backend: "event-driven"}, ""},
		{"everything on", Options{Backend: "event", Cover: true, Formal: true, FormalDepth: 40, Workers: 4}, ""},
		{"unknown backend", Options{Backend: "verilator"}, "backend"},
		{"negative formal depth", Options{FormalDepth: -1}, "formal-depth"},
		{"formal depth at bound", Options{Formal: true, FormalDepth: MaxFormalDepth}, ""},
		{"formal depth above bound", Options{FormalDepth: MaxFormalDepth + 1}, "formal-depth"},
		{"formal depth max int", Options{FormalDepth: math.MaxInt}, "formal-depth"},
		{"negative workers", Options{Workers: -1}, "workers"},
		{"workers at bound", Options{Workers: MaxWorkers}, ""},
		{"workers above bound", Options{Workers: MaxWorkers + 1}, "workers"},
		{"workers max int", Options{Workers: math.MaxInt}, "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending knob %q", err, tc.wantErr)
			}
		})
	}
}

// TestJobSpecValidateBounds is the table test for the job work knobs:
// values up to the named bounds pass, anything outside [0, bound] is
// rejected with a message naming the knob.
func TestJobSpecValidateBounds(t *testing.T) {
	cases := []struct {
		name    string
		spec    JobSpec
		wantErr string // "" = valid
	}{
		{"defaults", JobSpec{}, ""},
		{"vectors at bound", JobSpec{Vectors: MaxJobVectors}, ""},
		{"vectors above bound", JobSpec{Vectors: MaxJobVectors + 1}, "vectors"},
		{"vectors max int", JobSpec{Vectors: math.MaxInt}, "vectors"},
		{"negative vectors", JobSpec{Vectors: -1}, "vectors"},
		{"iterations at bound", JobSpec{MaxIterations: MaxJobIterations}, ""},
		{"iterations above bound", JobSpec{MaxIterations: MaxJobIterations + 1}, "max_iterations"},
		{"negative iterations", JobSpec{MaxIterations: -1}, "max_iterations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Module = "adder_8bit"
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending knob %q", err, tc.wantErr)
			}
		})
	}
}

// TestOptionsAdapters checks that the thin adapters fill exactly the
// shared knobs into the legacy config structs and leave every
// job-specific field of the base untouched.
func TestOptionsAdapters(t *testing.T) {
	o := Options{Backend: "event", Cover: true, Workers: 3}

	co := o.Core(core.Options{Seed: 7, MaxIterations: 5})
	if co.Backend != sim.BackendEventDriven || !co.Cover.Any() {
		t.Fatalf("Core adapter dropped shared knobs: %+v", co)
	}
	if co.Seed != 7 || co.MaxIterations != 5 {
		t.Fatalf("Core adapter clobbered base fields: %+v", co)
	}

	ec := o.Exp(exp.Config{Seed: 9})
	if ec.Backend != sim.BackendEventDriven || ec.Workers != 3 || ec.Seed != 9 {
		t.Fatalf("Exp adapter wrong: %+v", ec)
	}
}

// TestOptionsBMCDepth checks the effective-depth resolution.
func TestOptionsBMCDepth(t *testing.T) {
	if got := (Options{}).BMCDepth(); got != formal.DefaultBMCDepth {
		t.Fatalf("zero depth = %d, want engine default %d", got, formal.DefaultBMCDepth)
	}
	if got := (Options{FormalDepth: 23}).BMCDepth(); got != 23 {
		t.Fatalf("explicit depth = %d, want 23", got)
	}
}

// TestOptionsMerge checks the server-default merging semantics: zero
// knobs inherit, booleans or-combine, explicit values win.
func TestOptionsMerge(t *testing.T) {
	def := Options{Backend: "event", Cover: true, FormalDepth: 16, Workers: 2}

	got := Options{}.merge(def)
	if got != def {
		t.Fatalf("zero spec should inherit all defaults: %+v", got)
	}

	got = Options{Backend: "compiled", FormalDepth: 8, Formal: true}.merge(def)
	if got.Backend != "compiled" || got.FormalDepth != 8 {
		t.Fatalf("explicit knobs overridden by defaults: %+v", got)
	}
	if !got.Cover || !got.Formal {
		t.Fatalf("boolean knobs must or-combine: %+v", got)
	}
	if got.Workers != 2 {
		t.Fatalf("zero knobs must inherit: %+v", got)
	}
}
