package sim

// Batch tests: per-lane byte-identity against the standalone Harness
// (traces, VCD bytes, encoded coverage, final state, errors), per-lane
// snapshot/restore, lane masking, error isolation, and — under -race —
// concurrent Batches of one shared Program.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// batchStim builds deterministic per-lane stimulus for memDUT.
func batchStim(lane, cycle int) map[string]uint64 {
	return map[string]uint64{
		"rst_n": 1,
		"we":    uint64((cycle + lane) % 2),
		"addr":  uint64((cycle*7 + lane*3) % 16),
		"din":   uint64(lane*41+cycle*13) & 0xff,
	}
}

// harnessRef runs one standalone harness lane of memDUT under map
// stimulus and returns the harness (for wave/coverage/final-state
// inspection) and per-cycle output rows.
func harnessRef(t *testing.T, p *Program, lane, cycles int, withCover bool) (*Harness, [][]uint64) {
	t.Helper()
	inst, err := p.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(inst, "clk")
	if withCover {
		if err := h.EnableCover(CoverAll()); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.ApplyReset(2); err != nil {
		t.Fatal(err)
	}
	var outs [][]uint64
	for c := 0; c < cycles; c++ {
		if _, err := h.Cycle(batchStim(lane, c)); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, h.OutputRow(nil))
	}
	return h, outs
}

// wavesEqual compares two waveforms cell by cell.
func wavesEqual(a, b *Waveform) error {
	if a.Cycles() != b.Cycles() {
		return fmt.Errorf("cycles %d vs %d", a.Cycles(), b.Cycles())
	}
	for _, n := range a.Names() {
		for c := 0; c < a.Cycles(); c++ {
			if a.At(n, c) != b.At(n, c) {
				return fmt.Errorf("%s@%d: 0x%x vs 0x%x", n, c, a.At(n, c), b.At(n, c))
			}
		}
	}
	return nil
}

// checkLaneIdentity asserts lane k of the batch matches its standalone
// harness reference on every observable.
func checkLaneIdentity(t *testing.T, b *Batch, k int, h *Harness, refOuts, gotOuts [][]uint64, top string) {
	t.Helper()
	if err := b.Err(k); err != nil {
		t.Fatalf("lane %d errored: %v", k, err)
	}
	for c, want := range refOuts {
		for i, v := range want {
			if gotOuts[c][i] != v {
				t.Fatalf("lane %d cycle %d output %d: batch=0x%x harness=0x%x", k, c, i, gotOuts[c][i], v)
			}
		}
	}
	if err := wavesEqual(h.Wave, b.Wave(k)); err != nil {
		t.Fatalf("lane %d waveform: %v", k, err)
	}
	var vb, vh bytes.Buffer
	if err := WriteVCD(&vb, b.Wave(k), b.Lane(k).Design(), top); err != nil {
		t.Fatal(err)
	}
	if err := WriteVCD(&vh, h.Wave, h.Sim.Design(), top); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vb.Bytes(), vh.Bytes()) {
		t.Fatalf("lane %d VCD bytes differ", k)
	}
	if hc, bc := h.Coverage(), b.Coverage(k); (hc == nil) != (bc == nil) {
		t.Fatalf("lane %d coverage enabled mismatch", k)
	} else if hc != nil && !bytes.Equal(hc.Encode(), bc.Encode()) {
		t.Fatalf("lane %d coverage maps differ:\n--- batch ---\n%s--- harness ---\n%s", k, bc.Encode(), hc.Encode())
	}
	for _, n := range h.Sim.Design().SignalNames() {
		if h.Sim.Get(n) != b.Get(k, n) {
			t.Fatalf("lane %d final %s: batch=0x%x harness=0x%x", k, n, b.Get(k, n), h.Sim.Get(n))
		}
	}
	d := h.Sim.Design()
	for i := 0; i < d.NumSignals(); i++ {
		sv := d.Signal(i)
		for w := 0; w < sv.Depth; w++ {
			if h.Sim.GetMem(sv.Name, w) != b.GetMem(k, sv.Name, w) {
				t.Fatalf("lane %d final %s[%d]: batch=0x%x harness=0x%x", k, sv.Name, w, b.GetMem(k, sv.Name, w), h.Sim.GetMem(sv.Name, w))
			}
		}
	}
}

// runBatch drives a batch over the shared stimulus via the row API and
// returns per-lane per-cycle output rows.
func runBatch(t *testing.T, b *Batch, cycles int) [][][]uint64 {
	t.Helper()
	ports := b.Ports()
	if err := b.ApplyReset(2); err != nil {
		t.Fatal(err)
	}
	outs := make([][][]uint64, b.Lanes())
	rows := make([][]uint64, b.Lanes())
	for k := range rows {
		rows[k] = make([]uint64, len(ports))
	}
	for c := 0; c < cycles; c++ {
		for k := range rows {
			in := batchStim(k, c)
			for i, pt := range ports {
				rows[k][i] = in[pt.Name]
			}
		}
		if err := b.Cycle(rows); err != nil {
			t.Fatal(err)
		}
		for k := range rows {
			outs[k] = append(outs[k], b.OutputRow(k, nil))
		}
	}
	return outs
}

// TestBatchMatchesHarness is the core byte-identity gate: 8 lanes of a
// memory-bearing sequential design in one Batch (row stimulus, coverage
// on) against 8 standalone Harness runs, on both backends.
func TestBatchMatchesHarness(t *testing.T) {
	const lanes, cycles = 8, 40
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			p, err := CompileSource(memDUT, "memdut", be)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBatch(p, lanes, "clk")
			if err != nil {
				t.Fatal(err)
			}
			if err := b.EnableCover(CoverAll()); err != nil {
				t.Fatal(err)
			}
			outs := runBatch(t, b, cycles)
			for k := 0; k < lanes; k++ {
				h, refOuts := harnessRef(t, p, k, cycles, true)
				checkLaneIdentity(t, b, k, h, refOuts, outs[k], "memdut")
			}
		})
	}
}

// TestBatchLaneMasking checks a nil row freezes a lane — no state
// advance, no waveform row — while the other lanes proceed.
func TestBatchLaneMasking(t *testing.T) {
	p, err := CompileSource(memDUT, "memdut", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(p, 2, "clk")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyReset(2); err != nil {
		t.Fatal(err)
	}
	ports := b.Ports()
	row := make([]uint64, len(ports))
	in := batchStim(0, 5)
	for i, pt := range ports {
		row[i] = in[pt.Name]
	}
	before := b.Lane(1).Get("acc")
	if err := b.Cycle([][]uint64{row, nil}); err != nil {
		t.Fatal(err)
	}
	if got := b.Wave(1).Cycles(); got != 2 {
		t.Fatalf("masked lane recorded %d cycles, want 2 (reset only)", got)
	}
	if b.Wave(0).Cycles() != 3 {
		t.Fatal("live lane did not record")
	}
	if b.Lane(1).Get("acc") != before {
		t.Fatal("masked lane advanced")
	}
}

// oscDUT oscillates combinationally whenever en is high; cnt keeps the
// sequential side alive for the surviving lanes.
const oscDUT = `module osc(input clk, input en, output w, output reg [3:0] cnt);
  assign w = en ? ~w : 1'b0;
  always @(posedge clk) cnt <= cnt + 1;
endmodule`

// TestBatchLaneErrorIsolation drives one lane into combinational
// oscillation: it must die with exactly the standalone harness's error
// while the other lanes keep cycling and recording.
func TestBatchLaneErrorIsolation(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			p, err := CompileSource(oscDUT, "osc", be)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBatch(p, 3, "clk")
			if err != nil {
				t.Fatal(err)
			}
			ports := b.Ports()
			mkRow := func(en uint64) []uint64 {
				row := make([]uint64, len(ports))
				for i, pt := range ports {
					if pt.Name == "en" {
						row[i] = en
					}
				}
				return row
			}
			const badLane, badCycle, cycles = 1, 3, 8
			for c := 0; c < cycles; c++ {
				rows := [][]uint64{mkRow(0), mkRow(0), mkRow(0)}
				if c == badCycle {
					rows[badLane] = mkRow(1)
				}
				if err := b.Cycle(rows); err != nil {
					t.Fatal(err)
				}
			}
			if b.Err(0) != nil || b.Err(2) != nil {
				t.Fatalf("healthy lanes errored: %v / %v", b.Err(0), b.Err(2))
			}
			if b.Err(badLane) == nil {
				t.Fatal("oscillating lane did not error")
			}
			if got := b.Wave(badLane).Cycles(); got != badCycle {
				t.Fatalf("dead lane recorded %d cycles, want %d", got, badCycle)
			}
			if got := b.Wave(0).Cycles(); got != cycles {
				t.Fatalf("live lane recorded %d cycles, want %d", got, cycles)
			}
			if got := b.Lane(0).Get("cnt"); got != cycles {
				t.Fatalf("live lane cnt=%d, want %d", got, cycles)
			}
			// Standalone reference: same stimulus, same error, same cycle.
			inst, err := p.NewInstance()
			if err != nil {
				t.Fatal(err)
			}
			h := NewHarness(inst, "clk")
			var refErr error
			for c := 0; c <= badCycle; c++ {
				en := uint64(0)
				if c == badCycle {
					en = 1
				}
				if _, refErr = h.Cycle(map[string]uint64{"en": en}); refErr != nil {
					break
				}
			}
			if refErr == nil {
				t.Fatal("standalone reference did not oscillate")
			}
			if b.Err(badLane).Error() != refErr.Error() {
				t.Fatalf("error mismatch:\n batch:    %v\n harness:  %v", b.Err(badLane), refErr)
			}
		})
	}
}

// TestBatchPerLaneSnapshotRestore rewinds one lane mid-batch and checks
// the replayed trajectory matches, while the untouched lanes' histories
// are unaffected.
func TestBatchPerLaneSnapshotRestore(t *testing.T) {
	const lanes, half = 4, 10
	p, err := CompileSource(memDUT, "memdut", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(p, lanes, "clk")
	if err != nil {
		t.Fatal(err)
	}
	runBatch(t, b, half)
	sn := b.Lane(2).Snapshot()
	mid := stateFingerprint(b.Lane(2))

	ports := b.Ports()
	rows := make([][]uint64, lanes)
	for k := range rows {
		rows[k] = make([]uint64, len(ports))
	}
	drive := func(c int) {
		for k := range rows {
			in := batchStim(k, c)
			for i, pt := range ports {
				rows[k][i] = in[pt.Name]
			}
		}
		if err := b.Cycle(rows); err != nil {
			t.Fatal(err)
		}
	}
	var firstRun []string
	for c := half; c < 2*half; c++ {
		drive(c)
		firstRun = append(firstRun, stateFingerprint(b.Lane(2)))
	}
	if err := b.Lane(2).Restore(sn); err != nil {
		t.Fatal(err)
	}
	if got := stateFingerprint(b.Lane(2)); got != mid {
		t.Fatal("restore did not rewind the lane")
	}
	other := stateFingerprint(b.Lane(0))
	for c := half; c < 2*half; c++ {
		drive(c)
		if got := stateFingerprint(b.Lane(2)); got != firstRun[c-half] {
			t.Fatalf("cycle %d diverged after in-batch restore", c)
		}
	}
	if stateFingerprint(b.Lane(0)) == other {
		t.Fatal("lane 0 did not advance during the replay")
	}
}

// TestBatchWorkersByteIdentical is the -race gate for lane engines run
// side by side: three Batches of one shared Program, driven concurrently,
// must each reproduce a sequentially run reference bit for bit
// (waveforms and coverage).
func TestBatchWorkersByteIdentical(t *testing.T) {
	const lanes, cycles = 8, 30
	p, err := CompileSource(memDUT, "memdut", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Batch {
		b, err := NewBatch(p, lanes, "clk")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.EnableCover(CoverAll()); err != nil {
			t.Fatal(err)
		}
		runBatch(t, b, cycles)
		return b
	}
	ref := run()
	var wg sync.WaitGroup
	got := make([]*Batch, 3)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		for k := 0; k < lanes; k++ {
			if err := wavesEqual(ref.Wave(k), b.Wave(k)); err != nil {
				t.Fatalf("concurrent batch %d lane %d waveform: %v", i, k, err)
			}
			if !bytes.Equal(ref.Coverage(k).Encode(), b.Coverage(k).Encode()) {
				t.Fatalf("concurrent batch %d lane %d coverage differs", i, k)
			}
		}
	}
}

// TestBatchRejectsBadShapes pins the usage-error surface.
func TestBatchRejectsBadShapes(t *testing.T) {
	p, err := CompileSource(memDUT, "memdut", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(p, 0, "clk"); err == nil {
		t.Fatal("0-lane batch accepted")
	}
	b, err := NewBatch(p, 2, "clk")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Cycle([][]uint64{nil}); err == nil {
		t.Fatal("wrong row count accepted")
	}
	if err := b.Cycle([][]uint64{{1}, {2}}); err == nil {
		t.Fatal("short row accepted")
	}

	// Only the last lane's row is short: the call must fail before any
	// lane moves, not after lanes 0..k-1 have run their cycle.
	const lanes = 3
	b, err = NewBatch(p, lanes, "clk")
	if err != nil {
		t.Fatal(err)
	}
	runBatch(t, b, 4)
	ports := b.Ports()
	rows := make([][]uint64, lanes)
	for k := range rows {
		in := batchStim(k, 4)
		rows[k] = make([]uint64, len(ports))
		for i, pt := range ports {
			rows[k][i] = in[pt.Name]
		}
	}
	rows[lanes-1] = rows[lanes-1][:len(ports)-1]
	var cycles []int
	var states []string
	for k := 0; k < lanes; k++ {
		cycles = append(cycles, b.Wave(k).Cycles())
		states = append(states, stateFingerprint(b.Lane(k)))
	}
	if err := b.Cycle(rows); err == nil {
		t.Fatal("short last row accepted")
	}
	for k := 0; k < lanes; k++ {
		if got := b.Wave(k).Cycles(); got != cycles[k] {
			t.Fatalf("lane %d recorded %d cycles after a rejected call, want %d", k, got, cycles[k])
		}
		if stateFingerprint(b.Lane(k)) != states[k] {
			t.Fatalf("lane %d advanced on a rejected call", k)
		}
		if err := b.Err(k); err != nil {
			t.Fatalf("lane %d parked %v on a rejected call", k, err)
		}
	}
}

// TestBatchRandomizedAgainstHarness fuzzes the identity over random
// per-lane streams on both backends (short, deterministic): batch rows
// against the same stimulus as harness maps.
func TestBatchRandomizedAgainstHarness(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			p, err := CompileSource(coverFSMSrc, "cfsm", be)
			if err != nil {
				t.Fatal(err)
			}
			const lanes, cycles = 6, 50
			b, err := NewBatch(p, lanes, "clk")
			if err != nil {
				t.Fatal(err)
			}
			if err := b.EnableCover(CoverAll()); err != nil {
				t.Fatal(err)
			}
			if err := b.ApplyReset(2); err != nil {
				t.Fatal(err)
			}
			stim := func(lane int) []map[string]uint64 {
				rng := rand.New(rand.NewSource(int64(1000 + lane)))
				out := make([]map[string]uint64, cycles)
				for c := range out {
					out[c] = map[string]uint64{"rst_n": 1, "in": rng.Uint64() & 1}
				}
				return out
			}
			all := make([][]map[string]uint64, lanes)
			for k := range all {
				all[k] = stim(k)
			}
			ports := b.Ports()
			rows := make([][]uint64, lanes)
			for c := 0; c < cycles; c++ {
				for k := range rows {
					rows[k] = make([]uint64, len(ports))
					for i, pt := range ports {
						rows[k][i] = all[k][c][pt.Name]
					}
				}
				if err := b.Cycle(rows); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < lanes; k++ {
				inst, err := p.NewInstance()
				if err != nil {
					t.Fatal(err)
				}
				h := NewHarness(inst, "clk")
				if err := h.EnableCover(CoverAll()); err != nil {
					t.Fatal(err)
				}
				if err := h.ApplyReset(2); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < cycles; c++ {
					if _, err := h.Cycle(all[k][c]); err != nil {
						t.Fatal(err)
					}
				}
				if err := wavesEqual(h.Wave, b.Wave(k)); err != nil {
					t.Fatalf("lane %d: %v", k, err)
				}
				if !bytes.Equal(h.Coverage().Encode(), b.Coverage(k).Encode()) {
					t.Fatalf("lane %d coverage differs", k)
				}
			}
		})
	}
}
