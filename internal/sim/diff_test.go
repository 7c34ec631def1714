package sim_test

// Differential testing harness: the compiled backend must be bit-identical
// to the event-driven reference on port traces, VCD dumps and coverage
// counts — over every dataset module and a seeded sample of faultgen
// mutants (which inject exactly the constructs the levelizer must detect
// and route to the event-scheduler fallback: incomplete sensitivity lists,
// NBAs in combinational blocks, combinational loops).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// diffBackends simulates src on both backends with an identical random
// stimulus stream and fails on the first observable divergence. On each
// backend a second harness drives the same stream through the row
// protocol (CycleRow/OutputRow) and must match the map protocol's run
// byte for byte. It returns whether the compiled simulator ran levelized
// (false also when the source does not elaborate, in which case both
// backends must agree on the error).
func diffBackends(t *testing.T, name, src, top, clock string, cycles int, seed int64) bool {
	t.Helper()
	sE, errE := sim.CompileAndNewBackend(src, top, sim.BackendEventDriven)
	sC, errC := sim.CompileAndNewBackend(src, top, sim.BackendCompiled)
	if (errE == nil) != (errC == nil) {
		t.Fatalf("%s: construction diverged: event=%v compiled=%v", name, errE, errC)
	}
	if errE != nil {
		if errE.Error() != errC.Error() {
			t.Fatalf("%s: construction errors differ:\n event:    %v\n compiled: %v", name, errE, errC)
		}
		return false
	}

	hE := coveredHarness(t, name, sE, clock)
	hC := coveredHarness(t, name, sC, clock)
	rE := coveredHarness(t, name, freshInstance(t, name, sE), clock)
	rC := coveredHarness(t, name, freshInstance(t, name, sC), clock)

	rstE := hE.ApplyReset(2)
	rstC := hC.ApplyReset(2)
	if !errEqual(rstE, rstC) {
		t.Fatalf("%s: reset diverged: event=%v compiled=%v", name, rstE, rstC)
	}
	if rst := rE.ApplyReset(2); !errEqual(rst, rstE) {
		t.Fatalf("%s: row twin reset diverged: %v vs %v", name, rst, rstE)
	}
	if rst := rC.ApplyReset(2); !errEqual(rst, rstC) {
		t.Fatalf("%s: row twin reset diverged: %v vs %v", name, rst, rstC)
	}
	if rstE != nil {
		return sC.Levelized()
	}

	rng := rand.New(rand.NewSource(seed))
	ports := hE.Ports()
	row := make([]uint64, len(ports))
	var outRow []uint64
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]uint64{}
		for i, p := range ports {
			row[i] = rng.Uint64() & verilog.Mask(p.Width)
			in[p.Name] = row[i]
		}
		outE, cerrE := hE.Cycle(in)
		outC, cerrC := hC.Cycle(in)
		if !errEqual(cerrE, cerrC) {
			t.Fatalf("%s: cycle %d diverged: event=%v compiled=%v", name, cyc, cerrE, cerrC)
		}
		for _, tw := range []struct {
			h    *sim.Harness
			err  error
			outs map[string]uint64
		}{{rE, cerrE, outE}, {rC, cerrC, outC}} {
			if err := tw.h.CycleRow(row); !errEqual(err, tw.err) {
				t.Fatalf("%s: cycle %d row protocol error %v, map protocol %v", name, cyc, err, tw.err)
			}
			if tw.err != nil {
				continue
			}
			outRow = tw.h.OutputRow(outRow)
			for i, p := range sE.Design().Outputs() {
				if outRow[i] != tw.outs[p.Name] {
					t.Fatalf("%s: cycle %d output %s: row=0x%x map=0x%x", name, cyc, p.Name, outRow[i], tw.outs[p.Name])
				}
			}
		}
		if cerrE != nil {
			return sC.Levelized() // both died identically; trace prefix already compared
		}
		for sig, v := range outE {
			if outC[sig] != v {
				t.Fatalf("%s: cycle %d signal %s: event=0x%x compiled=0x%x", name, cyc, sig, v, outC[sig])
			}
		}
	}

	// Full recorded waveform, its VCD rendering, coverage and the complete
	// internal signal state must all agree byte for byte: across backends,
	// and between the row and map protocols on each backend.
	sameRun(t, name+" event vs compiled", hE, hC, top)
	sameRun(t, name+" event row vs map", rE, hE, top)
	sameRun(t, name+" compiled row vs map", rC, hC, top)
	return sC.Levelized()
}

// coveredHarness wraps s in a harness with full structural coverage on.
func coveredHarness(t *testing.T, name string, s *sim.Instance, clock string) *sim.Harness {
	t.Helper()
	h := sim.NewHarness(s, clock)
	if err := h.EnableCover(); err != nil {
		t.Fatalf("%s: cover: %v", name, err)
	}
	return h
}

// freshInstance allocates a second instance of s's program.
func freshInstance(t *testing.T, name string, s *sim.Instance) *sim.Instance {
	t.Helper()
	inst, err := s.Program().NewInstance()
	if err != nil {
		t.Fatalf("%s: instance: %v", name, err)
	}
	return inst
}

// sameRun fails unless two harnesses recorded byte-identical waveforms,
// VCD renderings and structural coverage, and ended in the same internal
// state.
func sameRun(t *testing.T, name string, a, b *sim.Harness, top string) {
	t.Helper()
	if a.Wave.Cycles() != b.Wave.Cycles() {
		t.Fatalf("%s: waveform length: %d vs %d", name, a.Wave.Cycles(), b.Wave.Cycles())
	}
	for _, n := range a.Wave.Names() {
		for cyc := 0; cyc < a.Wave.Cycles(); cyc++ {
			if a.Wave.At(n, cyc) != b.Wave.At(n, cyc) {
				t.Fatalf("%s: waveform %s@%d: 0x%x vs 0x%x", name, n, cyc, a.Wave.At(n, cyc), b.Wave.At(n, cyc))
			}
		}
	}
	var vcdA, vcdB bytes.Buffer
	if err := sim.WriteVCD(&vcdA, a.Wave, a.Sim.Design(), top); err != nil {
		t.Fatalf("%s: vcd: %v", name, err)
	}
	if err := sim.WriteVCD(&vcdB, b.Wave, b.Sim.Design(), top); err != nil {
		t.Fatalf("%s: vcd: %v", name, err)
	}
	if !bytes.Equal(vcdA.Bytes(), vcdB.Bytes()) {
		t.Fatalf("%s: VCD output differs", name)
	}
	if encA, encB := a.Coverage().Encode(), b.Coverage().Encode(); !bytes.Equal(encA, encB) {
		t.Fatalf("%s: structural coverage differs:\n%s---\n%s", name, encA, encB)
	}
	for _, n := range a.Sim.Design().SignalNames() {
		if a.Sim.Get(n) != b.Sim.Get(n) {
			t.Fatalf("%s: internal signal %s: 0x%x vs 0x%x", name, n, a.Sim.Get(n), b.Sim.Get(n))
		}
	}
}

func errEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestDifferentialDatasetModules diffs every golden benchmark module over
// several seeds, and requires that all of them take the levelized fast
// path (a fallback on golden RTL is a performance regression).
func TestDifferentialDatasetModules(t *testing.T) {
	for _, m := range dataset.All() {
		for seed := int64(1); seed <= 3; seed++ {
			lev := diffBackends(t, fmt.Sprintf("%s/seed%d", m.Name, seed), m.Source, m.Top, m.Clock, 200, seed)
			if !lev {
				s, _ := sim.CompileAndNew(m.Source, m.Top)
				t.Errorf("%s: golden module not levelized: %s", m.Name, s.FallbackReason())
			}
		}
	}
}

// TestDifferentialGlitchDerivedClock pins the one construct where the
// levelized sweep provably cannot match event scheduling: a gated clock
// that glitches. Event order runs `g = x & ~b` with stale b when x rises,
// producing a transient posedge; topological order computes b first and
// never pulses g. The levelizer must therefore refuse such designs and
// the compiled backend must fall back to event scheduling — this test
// fails with divergent q values if it does not.
func TestDifferentialGlitchDerivedClock(t *testing.T) {
	src := `module glitch(input x, output reg q);
  wire g, b;
  assign g = x & ~b;
  assign b = x;
  always @(posedge g) q <= 1'b1;
endmodule`
	diffBackends(t, "glitch-derived-clock", src, "glitch", "", 20, 1)
	s, err := sim.CompileAndNew(src, "glitch")
	if err != nil {
		t.Fatal(err)
	}
	if s.Levelized() {
		t.Fatal("glitch-prone derived clock must not take the levelized path")
	}
}

// TestDifferentialHugeMemIndex pins the unsigned bounds handling of
// memory accesses: a 64-bit index with bit 63 set (here via ~addr) must
// read 0 / drop the write on both backends instead of wrapping negative
// past the bounds check and panicking.
func TestDifferentialHugeMemIndex(t *testing.T) {
	src := `module hugeidx(input clk, input [63:0] addr, input [7:0] din, output reg [7:0] dout);
  reg [7:0] mem [0:15];
  always @(posedge clk) begin
    mem[~addr] <= din;
    dout <= mem[~addr] + mem[addr];
  end
endmodule`
	diffBackends(t, "huge-mem-index", src, "hugeidx", "clk", 50, 1)
}

// TestDifferentialFaultgenMutants diffs a deterministic sample of the
// released error benchmark — including syntax-broken instances (both
// backends must report the same elaboration error) and functional mutants
// that exercise the event-scheduler fallback paths.
func TestDifferentialFaultgenMutants(t *testing.T) {
	bench := faultgen.Benchmark()
	sampled, levelized := 0, 0
	for i := 0; i < len(bench); i += 3 {
		f := bench[i]
		m := f.Meta()
		sampled++
		if diffBackends(t, f.ID, f.Source, m.Top, m.Clock, 80, 1) {
			levelized++
		}
	}
	if sampled < 100 {
		t.Fatalf("mutant sample too small: %d < 100", sampled)
	}
	t.Logf("diffed %d mutants (%d levelized, %d event-fallback/broken)", sampled, levelized, sampled-levelized)
}
