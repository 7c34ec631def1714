package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, rel ...float64) []float64 {
	out := make([]float64, len(rel))
	for i, r := range rel {
		out[i] = base * (1 + r)
	}
	return out
}

// steady is ten runs within about 1% of their median.
var steady = []float64{0, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002, 0.008, -0.008, 0}

func shifted(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	parent := series(100, steady...)
	for _, c := range []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"same", lower, series(100, steady...), verdictNoWorse},
		{"5% slower", lower, series(100, shifted(steady, 0.05)...), verdictNoWorse},
		{"20% slower", lower, series(100, shifted(steady, 0.20)...), verdictWorse},
		{"10% faster", lower, series(100, shifted(steady, -0.10)...), verdictBetter},
		{"20% fewer per second", higher, series(100, shifted(steady, -0.20)...), verdictWorse},
		{"10% more per second", higher, series(100, shifted(steady, 0.10)...), verdictBetter},
		// Better in median but winning only 8 of 10 pairs.
		{"8 of 10", lower, series(100, -0.1, -0.1, -0.1, -0.1, -0.1, -0.1, -0.1, -0.1, 0.02, 0.02), verdictNoWorse},
	} {
		if got := verdict(c.d, parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// One run a side resolves a regression but cannot claim a gain.
	if got := verdict(lower, []float64{100}, []float64{80}); got != verdictNoWorse {
		t.Errorf("single faster run: verdict %q, want %q", got, verdictNoWorse)
	}
	if got := verdict(lower, []float64{100}, []float64{130}); got != verdictWorse {
		t.Errorf("single slower run: verdict %q, want %q", got, verdictWorse)
	}

	noisy := series(100, -0.3, 0.3, -0.2, 0.2, -0.1, 0.1, 0, 0.25, -0.25, 0.05)
	if got := verdict(lower, noisy, series(100, shifted(steady, 0.02)...)); got != verdictUnresolved {
		t.Errorf("spread wider than the bound: verdict %q, want %q", got, verdictUnresolved)
	}
	if got := verdict(lower, noisy, series(100, shifted(steady, -0.5)...)); got != verdictBetter {
		t.Errorf("noisy parent, change faster on every run: verdict %q, want %q", got, verdictBetter)
	}
	if got := verdict(lower, noisy, series(100, shifted(steady, 1)...)); got != verdictWorse {
		t.Errorf("noisy parent, change slower on every run: verdict %q, want %q", got, verdictWorse)
	}
}

func TestRunCompareFlagsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	mk := func(digest string) runsFile {
		var f runsFile
		for i := 0; i < 3; i++ {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 10 + float64(i)/100
			}
			f.Runs = append(f.Runs, &runReport{
				Workload: "formal_mix", Seed: int64(1 + i), Metrics: m,
				Child: &childOut{Digests: map[string]string{"verdicts": digest}, Counts: map[string]int{"pairs": 173}},
			})
		}
		return f
	}
	parent, same, other := filepath.Join(dir, "p.json"), filepath.Join(dir, "s.json"), filepath.Join(dir, "o.json")
	for path, f := range map[string]runsFile{parent: mk("abc"), same: mk("abc"), other: mk("abd")} {
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := runCompare(&out, parent, same); err != nil {
		t.Fatalf("identical runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no worse") {
		t.Errorf("identical runs printed no verdicts:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(&out, parent, other); err == nil {
		t.Errorf("differing digests compared clean:\n%s", out.String())
	}
}
