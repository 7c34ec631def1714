package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at tiny scale with tracing and
// every correctness check on, so a change to an internal API the
// benchmark calls breaks `go test` instead of the benchmark run.
func TestWorkloadsSmoke(t *testing.T) {
	for _, c := range []struct {
		name    string
		limit   int
		seconds time.Duration
	}{
		{"eval331", 6, 200 * time.Millisecond},
		{"uvllmd_open", 3, 600 * time.Millisecond},
		{"formal_mix", 12, 200 * time.Millisecond},
		{"lane_screen", 3, 200 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := workloadByName(c.name)
			if w == nil {
				t.Fatalf("no workload %s", c.name)
			}
			dir := t.TempDir()
			rc := newRunCtx(w.Name, 1, c.seconds, true, dir, false, time.Now())
			rc.limit = c.limit
			if err := w.run(rc); err != nil {
				t.Fatal(err)
			}
			out := rc.out
			for _, e := range out.Errors {
				t.Errorf("check failed: %s", e)
			}
			if out.Attempted == 0 || out.Failed != 0 {
				t.Errorf("%d ops attempted, %d failed: %v", out.Attempted, out.Failed, out.OpErrors)
			}
			for _, d := range endToEnd {
				if d.Name == "setup_s" || d.Name == "mem_peak_mb" {
					continue // set by the parent from its children
				}
				if out.E2E[d.Name] <= 0 {
					t.Errorf("%s = %g, want > 0", d.Name, out.E2E[d.Name])
				}
			}
			if out.Ledger == nil || out.Ledger.RootS <= 0 {
				t.Errorf("no per-layer ledger: %+v", out.Ledger)
			}
			if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil {
				t.Errorf("no Chrome trace: %v", err)
			}
		})
	}
}
