package uvm

import (
	"testing"

	"uvllm/internal/sim"
)

// TestCoveragePercentNoSamples pins the empty-collector contract: a
// collector that never sampled (and one for a design with no ports at
// all) reports 0%, not NaN.
func TestCoveragePercentNoSamples(t *testing.T) {
	d := designFor(t, "adder_8bit")
	c := NewCoverage(d)
	if got := c.Percent(); got != 0 {
		t.Fatalf("Percent with no samples = %v, want 0", got)
	}
	if got := c.Percent(); got != got { // NaN check
		t.Fatal("Percent is NaN")
	}

	// A collector over an empty port list divides by a zero total.
	empty := newCoverage(nil, nil)
	if got := empty.Percent(); got != 0 {
		t.Fatalf("empty-universe Percent = %v, want 0", got)
	}
}

// TestCoverageZeroWidthPort checks that a port recorded with width 0
// (the defensive case for pathological elaborations) contributes nothing
// to the toggle denominator and does not panic the sampler.
func TestCoverageZeroWidthPort(t *testing.T) {
	c := newCoverage([]sim.PortInfo{{Name: "in", Width: 8}},
		[]sim.PortInfo{{Name: "z", Width: 0}, {Name: "y", Width: 1}})
	sample(c, map[string]uint64{"in": 0}, map[string]uint64{"z": 1, "y": 1})
	sample(c, map[string]uint64{"in": 255}, map[string]uint64{"z": 0, "y": 0})
	// in: all four bins hit (0, max, low, high) = 4/4; y: both polarities
	// = 2/2; z contributes 0 to both numerator and denominator.
	if got := c.Percent(); got != 100 {
		t.Fatalf("Percent = %v, want 100 (zero-width port must not dilute)", got)
	}
}

// TestCoverage64BitMask checks the popcount masking on full-width
// signals: a 64-bit output toggled both ways is exactly 128 toggle
// points, and the wrap-around mask (1<<64) must not zero it out.
func TestCoverage64BitMask(t *testing.T) {
	c := newCoverage(nil, []sim.PortInfo{{Name: "wide", Width: 64}})
	sample(c, nil, map[string]uint64{"wide": 0})
	if got := c.Percent(); got != 50 {
		t.Fatalf("all-zeros 64-bit sample = %v%%, want 50 (64 of 128 points)", got)
	}
	sample(c, nil, map[string]uint64{"wide": ^uint64(0)})
	if got := c.Percent(); got != 100 {
		t.Fatalf("both polarities on 64 bits = %v%%, want 100", got)
	}

	// 64-bit input bins: max detection must use the full-width mask.
	c2 := newCoverage([]sim.PortInfo{{Name: "din", Width: 64}}, nil)
	sample(c2, map[string]uint64{"din": ^uint64(0)}, nil)
	b := c2.bins[0]
	if !b[1] {
		t.Fatal("all-ones 64-bit input did not hit the max bin")
	}
	if !b[3] {
		t.Fatal("all-ones 64-bit input did not land in the high-half bin")
	}
}

// TestCoverageReportIdenticalAcrossBackends drives the same seeded
// stimulus through both simulator backends and requires byte-identical
// port-coverage reports — the port-level analogue of the structural
// coverage gate in the rtlgen differential suite.
func TestCoverageReportIdenticalAcrossBackends(t *testing.T) {
	run := func(backend sim.Backend) string {
		env, err := NewEnv(Config{
			Source: needleSrc, Top: "needle", Clock: "clk",
			RefName: "accu", // any model: the scoreboard is irrelevant here
			Seed:    11, Backend: backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Run(&RandomSequence{
			Ports: stimPorts(env.DUT.Sim.Design(), "clk"),
			N:     40, ResetName: "rst_n",
		})
		return env.Cov.Report()
	}
	repC := run(sim.BackendCompiled)
	repE := run(sim.BackendEventDriven)
	if repC != repE {
		t.Fatalf("coverage reports differ across backends:\n--- compiled ---\n%s--- event ---\n%s", repC, repE)
	}
	if repC == "" {
		t.Fatal("empty coverage report")
	}
}
