package main

import (
	"math"
	"testing"
	"time"

	"uvllm/internal/obs"
)

var t0 = time.Unix(1000, 0)

func sp(group string, id, parent int64, name string, startMS, endMS int) span {
	return span{Group: group, ID: id, Parent: parent, Name: name,
		Start: t0.Add(time.Duration(startMS) * time.Millisecond),
		Dur:   time.Duration(endMS-startMS) * time.Millisecond}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		sp("g", 1, 0, "check", 0, 10),
		sp("g", 2, 1, "formal.induction", 1, 4),
		sp("g", 3, 1, "formal.induction", 5, 9),
		sp("g", 4, 3, "induct_step", 6, 8),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"check":            3 * time.Millisecond,
		"formal.induction": 5 * time.Millisecond,
		"induct_step":      2 * time.Millisecond,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// Concurrent jobs reuse span IDs across groups, and children of one
// parent may overlap or spill past it; the overlap counts once and the
// spill not at all.
func TestSelfTimesConcurrentJobs(t *testing.T) {
	spans := []span{
		sp("job-a", 1, 0, "request", 0, 10),
		sp("job-a", 2, 1, "setup", 0, 6),
		sp("job-a", 3, 1, "uvm_run", 4, 12),
		sp("job-b", 1, 0, "request", 5, 25),
		sp("job-b", 2, 1, "setup", 5, 10),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 15 * time.Millisecond, // a: 0, b: 20-5
		"setup":   11 * time.Millisecond,
		"uvm_run": 8 * time.Millisecond,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestBuildLedger(t *testing.T) {
	spans := []span{
		sp("g", 1, 0, "screen", 0, 100),
		sp("g", 2, 1, "psim.classify", 0, 95),
		sp("g", 3, 0, "screen", 100, 200),
		sp("g", 4, 3, "mystery", 100, 150),
	}
	l := buildLedger(spans)
	if l.RootS != 0.2 {
		t.Errorf("root = %g s, want 0.2", l.RootS)
	}
	if math.Abs(l.UnattributedPc-27.5) > 1e-9 {
		t.Errorf("unattributed = %g%%, want 27.5%%", l.UnattributedPc)
	}
	if len(l.Unknown) != 1 || l.Unknown[0] != "mystery" {
		t.Errorf("unknown spans = %v, want [mystery]", l.Unknown)
	}
	sh := l.shares()
	if math.Abs(sh["psim.classify_pct"]-47.5) > 1e-9 {
		t.Errorf("psim.classify_pct = %g, want 47.5", sh["psim.classify_pct"])
	}
}

// A uvllmd request's client intervals and the server's job tile the
// request exactly, whether the job ends before or after the submit
// response reaches the client.
func TestRequestSpansTile(t *testing.T) {
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	for _, jobEnd := range []int{4, 9} {
		timing := reqTiming{Due: at(0), Sent: at(2), Submitted: at(5), FetchStart: at(11), Done: at(12)}
		job := []obs.SpanInfo{{ID: 1, Name: "job", Start: at(3), Dur: time.Duration(jobEnd-3) * time.Millisecond}}
		spans := requestSpans("job-1", timing, job)
		var children time.Duration
		for _, s := range spans {
			if s.Parent == 1<<40 {
				children += s.Dur
			}
		}
		if children != 12*time.Millisecond {
			t.Errorf("job ending at %d ms: children cover %v of a 12ms request", jobEnd, children)
		}
		if self := selfTimes(spans)["request"]; self != 0 {
			t.Errorf("job ending at %d ms: request self time %v, want 0", jobEnd, self)
		}
	}
}

// Every span the program or the benchmark emits must land on a declared
// per-layer metric, or the ledger would drop its time silently.
func TestSpanMetricsDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for name, m := range spanMetric {
		if !declared[m] {
			t.Errorf("span %s maps to undeclared metric %s", name, m)
		}
	}
}
