package exp

import (
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/sim"
)

// TestEquivStudyAgreesWithSimulation is the acceptance gate of the
// formal engine over the 27 golden modules: every supported module must
// be provably self-equivalent to the study depth, every SAT verdict on a
// benchmark mutant must replay as a concrete simulation divergence at
// the predicted cycle, and every UNSAT verdict must survive random
// simulation probes — zero formal-vs-simulation mismatches. (EquivStudy
// returns an error on the first mismatch, so the gate is the nil error.)
func TestEquivStudyAgreesWithSimulation(t *testing.T) {
	sess := SharedSession(sim.BackendCompiled)
	st, err := sess.EquivStudy(0, 0)
	if err != nil {
		t.Fatalf("formal-vs-simulation mismatch: %v", err)
	}
	if len(st.Rows) != len(dataset.All()) {
		t.Fatalf("study covered %d modules, want %d", len(st.Rows), len(dataset.All()))
	}
	supported, detected, keq, unbounded := 0, 0, 0, 0
	for _, r := range st.Rows {
		if !r.Supported {
			t.Logf("unsupported: %-18s %s", r.Module, r.Reason)
			continue
		}
		supported++
		if !r.SelfEquiv {
			t.Errorf("%s: golden not self-equivalent", r.Module)
		}
		detected += r.Detected
		keq += r.KEquiv
		unbounded += r.Unbounded
	}
	// The subset must be substantial for the oracle to mean anything:
	// most of the benchmark is small clean RTL.
	if supported < 18 {
		t.Fatalf("only %d/27 modules inside the blastable subset", supported)
	}
	if detected < 10 {
		t.Fatalf("only %d benchmark mutants refuted: the SAT/replay path is under-exercised", detected)
	}
	// The induction outcome column must be live: at least one benchmark
	// mutant pair proved equivalent for all time by a closing step (the
	// study probes those verdicts with deeper random runs).
	if unbounded < 1 {
		t.Fatal("no mutant pair proved unbounded by k-induction: the step path is dead in the study")
	}
	t.Logf("supported %d/%d modules; mutants: %d refuted (replayed), %d proved %d-cycle equivalent (%d unbounded)",
		supported, len(st.Rows), detected, keq, st.Depth, unbounded)

	// The table and stats renderers must cover every row.
	table := FormatEquiv(st)
	for _, m := range dataset.All() {
		if !strings.Contains(table, m.Name) {
			t.Fatalf("FormatEquiv dropped module %s:\n%s", m.Name, table)
		}
	}
	if stats := FormatEquivStats(st); !strings.Contains(stats, "p50") {
		t.Fatalf("FormatEquivStats missing percentiles:\n%s", stats)
	}
}
