package sim

// Regression tests for the Snapshot/Restore × coverage contract: the
// accumulated map survives a restore untouched (coverage is
// observational), but the FSM sampler's transition history must rewind
// with the instance — otherwise the first post-restore sample records a
// transition out of the pre-restore state that no timeline ever took.

import (
	"fmt"
	"testing"

	"uvllm/internal/cover"
)

// transPoint names an inferred-FSM transition point the way the cover
// plan registers them.
func transPoint(sig string, a, b uint64) cover.Point {
	return cover.Point{Kind: cover.KindTrans, Name: fmt.Sprintf("%s:%d->%d", sig, a, b)}
}

// TestSnapshotRestoreCoverageNoPhantomTransition rewinds a covering
// instance from state 2 back to state 1 and then steps to state 0. The
// recorded transition must be 1->0 (the restored timeline), never 2->0
// (stale pre-restore history).
func TestSnapshotRestoreCoverageNoPhantomTransition(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			p, err := CompileSource(coverFSMSrc, "cfsm", be)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := p.NewInstance()
			if err != nil {
				t.Fatal(err)
			}
			h := NewHarness(inst, "clk")
			if err := h.EnableCover(); err != nil {
				t.Fatal(err)
			}
			if err := h.ApplyReset(2); err != nil {
				t.Fatal(err)
			}
			step := func(in uint64) {
				t.Helper()
				if _, err := h.Cycle(map[string]uint64{"rst_n": 1, "in": in}); err != nil {
					t.Fatal(err)
				}
			}
			step(1) // state 0 -> 1
			sn := inst.Snapshot()
			step(1) // state 1 -> 2
			if got := inst.Get("state"); got != 2 {
				t.Fatalf("state=%d, want 2", got)
			}
			m := h.Coverage()
			hitBefore := m.Hit()
			if err := inst.Restore(sn); err != nil {
				t.Fatal(err)
			}
			if got := inst.Get("state"); got != 1 {
				t.Fatalf("restored state=%d, want 1", got)
			}
			if h.Coverage() != m || m.Hit() != hitBefore {
				t.Fatal("restore must not reset or swap the accumulated coverage map")
			}
			step(0) // restored timeline: state 1 -> 0
			if got := m.Count(transPoint("state", 2, 0)); got != 0 {
				t.Fatalf("phantom transition 2->0 recorded %d times; no timeline took it", got)
			}
			if got := m.Count(transPoint("state", 1, 0)); got != 1 {
				t.Fatalf("real transition 1->0 recorded %d times, want 1", got)
			}
		})
	}
}

// TestSnapshotWithoutCoverageRestoresCleanly restores a snapshot that
// predates EnableCover into a covering instance: the unknown transition
// history must be cleared, so the first post-restore sample records
// occupancy only — never a transition fabricated from stale history.
func TestSnapshotWithoutCoverageRestoresCleanly(t *testing.T) {
	p, err := CompileSource(coverFSMSrc, "cfsm", BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := p.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(inst, "clk")
	sn0 := inst.Snapshot() // coverage not yet enabled
	if err := h.EnableCover(); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyReset(2); err != nil {
		t.Fatal(err)
	}
	step := func(in uint64) {
		t.Helper()
		if _, err := h.Cycle(map[string]uint64{"rst_n": 1, "in": in}); err != nil {
			t.Fatal(err)
		}
	}
	step(1) // 0 -> 1
	step(1) // 1 -> 2; sampler history now ends at state 2
	if err := inst.Restore(sn0); err != nil {
		t.Fatal(err)
	}
	m := h.Coverage()
	before := m.Count(transPoint("state", 2, 1))
	step(1) // fresh timeline: 0 -> 1; first sample after a cleared history
	if got := m.Count(transPoint("state", 2, 1)); got != before {
		t.Fatalf("restore from a pre-coverage snapshot fabricated transition 2->1 (%d)", got)
	}
	step(1) // 1 -> 2 must record normally again
	if got := m.Count(transPoint("state", 1, 2)); got < 2 {
		t.Fatalf("transition sampling did not resume after restore: 1->2 count=%d", got)
	}
}
