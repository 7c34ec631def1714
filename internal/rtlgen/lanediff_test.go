package rtlgen

import (
	"testing"

	"uvllm/internal/dataset"
)

// TestDiffBitSimOverStridedSeeds is the lane-engine byte-identity gate
// over generated designs: a strided subset of the rtlgen seed space
// (hitting every generator flavor mix) must produce identical traces,
// VCD bytes, coverage encodings, error surfaces and final state whether
// the lanes run in a sim.Batch, one-bit-per-word over the blasted
// AIG, or as standalone harnesses. Both sides of the psim leg must be
// exercised: levelized designs take it, event-fallback flavors run on the
// batch alone.
func TestDiffBitSimOverStridedSeeds(t *testing.T) {
	const stride, count = 17, 12
	bit := 0
	for i := 0; i < count; i++ {
		d := Generate(int64(1 + i*stride))
		bp, err := DiffLanes(d.Source, d.Top, d.Clock, 6, 30, d.Seed)
		if err != nil {
			t.Fatalf("seed %d (%s): lane engines diverged: %v\n%s", d.Seed, d.Flavor, err, d.Source)
		}
		if bp {
			bit++
		}
	}
	if bit == 0 {
		t.Fatal("no strided seed took the psim leg")
	}
	if bit == count {
		t.Fatal("every strided seed took the psim leg: the batch-only path went unexercised")
	}
	t.Logf("psim leg on %d/%d strided seeds", bit, count)
}

// TestDiffBatchLanesOverStridedSeeds runs the same strided seeds at more
// lanes than one psim word holds: lanes 64 and up run on the batch alone,
// next to the psim engine's 64.
func TestDiffBatchLanesOverStridedSeeds(t *testing.T) {
	const stride, count = 17, 12
	for i := 0; i < count; i++ {
		d := Generate(int64(1 + i*stride))
		if _, err := DiffLanes(d.Source, d.Top, d.Clock, 70, 12, d.Seed); err != nil {
			t.Fatalf("seed %d (%s): lane engines diverged: %v\n%s", d.Seed, d.Flavor, err, d.Source)
		}
	}
}

// TestDiffBitSimDataset requires zero divergences across every dataset
// module — the designs the verification pipeline actually runs on — and
// pins the subset floor: the overwhelming majority must take the psim
// leg (sync and async-reset sequential designs included).
func TestDiffBitSimDataset(t *testing.T) {
	mods := dataset.All()
	bit := 0
	for _, m := range mods {
		bp, err := DiffLanes(m.Source, m.Top, m.Clock, 8, 30, 0x5eed)
		if err != nil {
			t.Fatalf("%s: lane engines diverged: %v", m.Name, err)
		}
		if bp {
			bit++
		}
	}
	if bit < len(mods)*3/4 {
		t.Fatalf("only %d/%d dataset modules took the psim leg (want >= 3/4)", bit, len(mods))
	}
	t.Logf("psim leg on %d/%d dataset modules", bit, len(mods))
}

// TestDiffBitSimSkipsUnelaborable pins the vacuous path: sources the
// compiler rejects are DiffBackends' case, not a lane divergence.
func TestDiffBitSimSkipsUnelaborable(t *testing.T) {
	if _, err := DiffLanes("module broken(", "broken", "clk", 4, 10, 1); err != nil {
		t.Fatalf("unelaborable source must be vacuously fine, got %v", err)
	}
}

// TestDiffLanesDeadLanes drives a design that oscillates whenever en is
// high, so lanes die at different cycles: every batch lane must die at
// its standalone harness's cycle with the same error while the others
// keep agreeing. The combinational loop keeps the design off the psim
// leg.
func TestDiffLanesDeadLanes(t *testing.T) {
	const src = `module osc(input clk, input en, output w, output reg [3:0] cnt);
  assign w = en ? ~w : 1'b0;
  always @(posedge clk) cnt <= cnt + 1;
endmodule`
	bp, err := DiffLanes(src, "osc", "clk", 6, 12, 3)
	if err != nil {
		t.Fatalf("lane engines diverged: %v", err)
	}
	if bp {
		t.Fatal("an oscillating design took the psim leg")
	}
}
