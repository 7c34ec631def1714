package faultgen

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/formal"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

// TestClassifyBitParallelDetects: a simulation-observable functional
// mutant must be caught by 64 random stimulus lanes, with a plausible
// witness location.
func TestClassifyBitParallelDetects(t *testing.T) {
	f := functionalFault(t)
	v, err := ClassifyBitParallel(f, 64, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Supported {
		t.Fatalf("observable fault %s outside the bit-parallel subset", f.ID)
	}
	if !v.Detected {
		t.Fatalf("observable fault %s escaped 64 random lanes", f.ID)
	}
	if v.Lane < 0 || v.Lane >= 64 || v.Cycle < 0 || v.Cycle >= 300 || v.Signal == "" {
		t.Fatalf("implausible witness: lane=%d cycle=%d signal=%q", v.Lane, v.Cycle, v.Signal)
	}
	if v.DetectedLanes < 1 || v.DetectedLanes > 64 {
		t.Fatalf("bad detected-lane count %d", v.DetectedLanes)
	}
	v2, err := ClassifyBitParallel(f, 64, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != v2 {
		t.Fatalf("classifier is not deterministic: %+v vs %+v", v, v2)
	}
}

// TestClassifyBitParallelGoldenUndetected: a design can never diverge
// from itself — every golden-vs-golden pair must classify clean, and
// every dataset module must be inside the subset.
func TestClassifyBitParallelGoldenUndetected(t *testing.T) {
	for _, m := range dataset.All() {
		v, err := ClassifyBitParallelSource(m.Source, m.Source, m.Top, m.Clock, 32, 60, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !v.Supported {
			t.Fatalf("%s left the bit-parallel subset", m.Name)
		}
		if v.Detected {
			t.Fatalf("%s diverged from itself at lane %d cycle %d signal %s",
				m.Name, v.Lane, v.Cycle, v.Signal)
		}
	}
}

// TestClassifyBitParallelSharing pins the point of the shared graph: a
// golden-vs-golden pair over shared input variables must strash-collapse
// to strictly fewer gates than two standalone circuits. (It does not
// collapse all the way to one circuit: each side keeps its own
// previous-state variables, so only the input-only cones merge.)
func TestClassifyBitParallelSharing(t *testing.T) {
	m := dataset.ByName("mux4")
	if m == nil {
		t.Fatal("mux4 missing from the dataset")
	}
	p, err := sim.SharedCache().Compile(m.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := formal.NewCircuit(p, m.Clock, formal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	soloOps := psim.NewMachine(solo.G).Ops()
	v, err := ClassifyBitParallelSource(m.Source, m.Source, m.Top, m.Clock, 64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Supported {
		t.Fatal("mux4 pair unsupported")
	}
	if v.GateOps >= 2*soloOps {
		t.Fatalf("golden-vs-golden pair shared nothing: pair %d gates, solo %d", v.GateOps, soloOps)
	}
	t.Logf("shared pair: %d gates vs %d solo (2x = %d)", v.GateOps, soloOps, 2*soloOps)
}

// TestClassifyBitParallelAgreesWithBounded: a concrete divergence
// witness at cycle c is a satisfying assignment of the depth-(c+1)
// miter, so the SAT classifier must call the same fault detectable.
func TestClassifyBitParallelAgreesWithBounded(t *testing.T) {
	f := functionalFault(t)
	v, err := ClassifyBitParallel(f, 64, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected || v.Cycle >= formal.DefaultBMCDepth {
		t.Skipf("no witness within BMC depth (detected=%v cycle=%d)", v.Detected, v.Cycle)
	}
	verdict, cex := ClassifyBounded(f, formal.DefaultBMCDepth)
	if verdict == FormalUnsupported {
		t.Skip("bounded classifier out of budget on this fault")
	}
	if verdict != FormalDetectable {
		t.Fatalf("bit-parallel witness at cycle %d but bounded verdict %s", v.Cycle, verdict)
	}
	if cex == nil || cex.Cycle > v.Cycle {
		t.Fatalf("bounded counterexample at cycle %v, bit-parallel witnessed cycle %d", cex, v.Cycle)
	}
}

// TestClassifyBitParallelPinned pins every functional benchmark fault's
// screen verdict, error included, to digests recorded before the screen
// learned to stop once every lane has diverged: the stop may save
// cycles but never change a verdict. The second run's 7 lanes cover an
// active mask below a full word.
func TestClassifyBitParallelPinned(t *testing.T) {
	for _, tc := range []struct {
		lanes, cycles int
		seed          int64
		want          string
	}{
		{64, 500, 1, "8355c1a96b663a9a39a3d0c1"},
		{7, 500, 3, "4c431835ccf6ff29fd2d9977"},
	} {
		h := sha256.New()
		n := 0
		for _, f := range Benchmark() {
			if f.Class.IsSyntax() {
				continue
			}
			v, err := ClassifyBitParallel(f, tc.lanes, tc.cycles, tc.seed)
			fmt.Fprintf(h, "%s|%+v|%v\n", f.ID, v, err)
			n++
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != tc.want {
			t.Errorf("lanes=%d cycles=%d seed=%d: %d verdicts digest %s, want %s",
				tc.lanes, tc.cycles, tc.seed, n, got, tc.want)
		}
	}
}

// TestClassifyBitParallelSettledIsFinal: once all 64 lanes have
// diverged the verdict is final, so a budget 20x longer returns the
// same BitVerdict.
func TestClassifyBitParallelSettledIsFinal(t *testing.T) {
	for _, f := range Benchmark() {
		if f.Class.IsSyntax() {
			continue
		}
		short, err := ClassifyBitParallel(f, 64, 200, 1)
		if err != nil || short.DetectedLanes != 64 {
			continue
		}
		long, err := ClassifyBitParallel(f, 64, 4000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if long != short {
			t.Fatalf("%s: settled verdict moved with the budget:\n200 cycles:  %+v\n4000 cycles: %+v", f.ID, short, long)
		}
		return
	}
	t.Fatal("no functional benchmark fault diverges on all 64 lanes within 200 cycles")
}
