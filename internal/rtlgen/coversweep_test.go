package rtlgen

import (
	"fmt"
	"strings"
	"testing"

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
// cumulative set does not hold, so replaying the same seeds against the
// already-filled set keeps nothing.
func TestCoverSweepKeepLogic(t *testing.T) {
	cum := Shapes{}
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
	if len(cum) == 0 {
		t.Fatal("cumulative set empty after a sweep")
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

// TestCoverSweepPinned pins the coverage sweep CI's smoke step prints
// (rtlgen -seed 1 -n 25 -cover -cycles 48): every design's random and
// directed coverage, its new shape points and whether it was kept, and
// the cumulative shape count. The values were recorded before the
// cumulative tally became a Shapes set.
func TestCoverSweepPinned(t *testing.T) {
	type row struct {
		seed             int64
		random, directed string
		fresh            int
		kept             bool
	}
	want := []row{
		{1, "80.603", "81.753", 569, true},
		{2, "55.294", "55.294", 136, true},
		{3, "57.869", "57.869", 114, true},
		{4, "70.236", "70.236", 164, true},
		{5, "86.928", "88.235", 47, true},
		{6, "88.235", "88.235", 83, true},
		{7, "82.766", "81.915", 103, true},
		{8, "63.708", "63.969", 72, true},
		{9, "62.943", "62.943", 60, true},
		{10, "73.765", "75.809", 147, true},
		{11, "77.914", "77.505", 94, true},
		{12, "74.302", "74.302", 27, true},
		{13, "74.483", "74.483", 76, true},
		{14, "60.679", "62.874", 57, true},
		{15, "69.888", "71.747", 29, true},
		{16, "76.221", "77.362", 148, true},
		{17, "71.231", "73.492", 61, true},
		{18, "79.954", "79.954", 50, true},
		{19, "70.112", "70.391", 47, true},
		{20, "70.547", "70.547", 23, true},
		{21, "70.889", "70.889", 54, true},
		{22, "60.267", "60.267", 20, true},
		{23, "65.012", "65.012", 86, true},
		{24, "65.438", "66.359", 67, true},
		{25, "64.103", "65.064", 19, true},
	}
	runs, cum, err := CoverSweep(1, len(want), 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		got := row{r.Design.Seed, fmt.Sprintf("%.3f", r.RandomPct), fmt.Sprintf("%.3f", r.DirectedPct), r.NewPoints, r.Kept}
		if got != want[i] {
			t.Errorf("run %d: got %+v, want %+v", i, got, want[i])
		}
	}
	if len(cum) != 2353 {
		t.Errorf("cumulative shape coverage %d points, want 2353", len(cum))
	}
}
