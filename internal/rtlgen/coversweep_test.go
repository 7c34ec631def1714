package rtlgen

import (
	"strings"
	"testing"

	"uvllm/internal/cover"
	"uvllm/internal/metrics"
)

// TestDirectedBeatsRandomMedian is the acceptance gate for the
// coverage-directed stimulus layer: over a fixed population of seeded
// generated designs, directed stimulus must reach strictly higher median
// structural coverage than uniform random stimulus at the same cycle
// budget. Everything is seeded, so the comparison is deterministic.
func TestDirectedBeatsRandomMedian(t *testing.T) {
	const (
		nDesigns = 24 // well above the required >=10
		budget   = 48 // cycles per design per method
	)
	runs, _, err := CoverSweep(1, nDesigns, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 10 {
		t.Fatalf("only %d designs evaluated", len(runs))
	}
	var random, directed []float64
	wins, losses := 0, 0
	for _, r := range runs {
		random = append(random, r.RandomPct)
		directed = append(directed, r.DirectedPct)
		switch {
		case r.DirectedPct > r.RandomPct:
			wins++
		case r.DirectedPct < r.RandomPct:
			losses++
		}
	}
	mr, md := metrics.Median(random), metrics.Median(directed)
	if md <= mr {
		t.Fatalf("directed median %.3f%% must be strictly higher than random median %.3f%% (wins=%d losses=%d)",
			md, mr, wins, losses)
	}
	if wins <= losses {
		t.Fatalf("directed should win more designs than it loses: wins=%d losses=%d", wins, losses)
	}
	t.Logf("median coverage: random %.2f%%, directed %.2f%% (wins=%d ties=%d losses=%d)",
		mr, md, wins, len(runs)-wins-losses, losses)
}

// TestCoverSweepKeepLogic checks the corpus-retention rule: a design is
// kept exactly when its directed run hits generator-shape points the
// cumulative map has not absorbed, so replaying the same seeds against
// the already-merged map keeps nothing.
func TestCoverSweepKeepLogic(t *testing.T) {
	cum := cover.New()
	first, err := coverSweepInto(cum, 1, 4, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.Kept != (r.NewPoints > 0) {
			t.Fatalf("seed %d: Kept=%v with NewPoints=%d", r.Design.Seed, r.Kept, r.NewPoints)
		}
	}
	if !first[0].Kept {
		t.Fatal("the first design against an empty map must be kept")
	}
	replay, err := coverSweepInto(cum, 1, 4, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range replay {
		if r.Kept || r.NewPoints != 0 {
			t.Fatalf("replayed seed %d still reported %d new points", r.Design.Seed, r.NewPoints)
		}
	}
}

func TestCoverSweepCorporaRecorded(t *testing.T) {
	runs, cum, err := CoverSweep(5, 3, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cum.Hit() == 0 {
		t.Fatal("cumulative map empty after a sweep")
	}
	for _, r := range runs {
		if r.Corpus == nil {
			t.Fatalf("seed %d: nil corpus", r.Design.Seed)
		}
		if r.RandomPct <= 0 || r.DirectedPct <= 0 {
			t.Fatalf("seed %d: degenerate coverage %v/%v", r.Design.Seed, r.RandomPct, r.DirectedPct)
		}
	}
	out := FormatCoverSweep(runs, cum)
	if !strings.Contains(out, "kept") || !strings.Contains(out, "cumulative shape coverage") {
		t.Fatalf("FormatCoverSweep output malformed:\n%s", out)
	}
}
