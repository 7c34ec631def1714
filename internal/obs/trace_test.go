package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestSpanTree checks span nesting, run-id propagation, arg capture,
// ordering of Spans(), and End idempotence.
func TestSpanTree(t *testing.T) {
	tr := NewTracer("run-42")
	root := tr.Start("job")
	child := root.Child("iteration")
	child.SetArg("iter", "1")
	grand := child.Child("uvm_eval")
	grand.End()
	child.End()
	child.End() // idempotent
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["iteration"].Parent != byName["job"].ID {
		t.Fatal("iteration not parented to job")
	}
	if byName["uvm_eval"].Parent != byName["iteration"].ID {
		t.Fatal("uvm_eval not parented to iteration")
	}
	if byName["iteration"].Args["iter"] != "1" {
		t.Fatalf("args lost: %v", byName["iteration"].Args)
	}
	for _, s := range spans {
		if s.Args["run_id"] != "run-42" {
			t.Fatalf("run_id not propagated on %s: %v", s.Name, s.Args)
		}
	}
}

// TestNilTracer checks the whole tracing API is a no-op on nil
// receivers — the disabled fast path.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	sp.SetArg("k", "v")
	child := sp.Child("y")
	child.End()
	sp.End()
	if tr.Spans() != nil || tr.RunID() != "" {
		t.Fatal("nil tracer recorded state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("nil-tracer trace not valid JSON: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("nil tracer emitted events: %v", events)
	}
}

// TestWriteChromeTrace checks the export is a valid trace_event array
// with complete-phase events, microsecond units, and parent links.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer("r")
	root := tr.Start("job")
	child := root.Child("phase")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Ph != "X" || e.Pid != 1 || e.Tid != 1 {
			t.Fatalf("bad event shape: %+v", e)
		}
	}
	var rootID string
	for _, e := range events {
		if e.Name == "job" {
			if e.Dur < 2000 { // >= 2ms in microseconds
				t.Fatalf("job dur = %v us, want >= 2000", e.Dur)
			}
			rootID = "1"
		}
	}
	for _, e := range events {
		if e.Name == "phase" && e.Args["parent_span"] != rootID {
			t.Fatalf("phase parent_span = %q, want %q", e.Args["parent_span"], rootID)
		}
	}
}

// TestSlowSpanHook checks OnEnd, the tracer's one hook (uvllmd's
// slow-span log filters it by duration): it fires once for every
// finished span, fast or slow, children first, with the span's record.
func TestSlowSpanHook(t *testing.T) {
	tr := NewTracer("r")
	var ended []SpanInfo
	tr.OnEnd = func(s SpanInfo) { ended = append(ended, s) }

	root := tr.Start("root")
	fast := root.Child("fast")
	fast.End()
	fast.End() // idempotent: no second record
	slow := root.Child("slow")
	slow.SetArg("k", "v")
	time.Sleep(6 * time.Millisecond)
	slow.End()
	root.End()

	var names []string
	for _, s := range ended {
		names = append(names, s.Name)
	}
	if fmt.Sprint(names) != "[fast slow root]" {
		t.Fatalf("OnEnd fired for %v, want [fast slow root]", names)
	}
	if s := ended[1]; s.Dur < 6*time.Millisecond || s.Parent != ended[2].ID || s.Args["k"] != "v" || s.Args["run_id"] != "r" {
		t.Fatalf("slow span record %+v, want >= 6ms under the root with its args and run_id", s)
	}
	if got := tr.Spans(); len(got) != 3 {
		t.Fatalf("tracer kept %d spans, want 3", len(got))
	}
}

// TestContextPropagation checks ContextWith/FromContext round-trips a
// span and degrades to nil safely.
func TestContextPropagation(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
	tr := NewTracer("r")
	sp := tr.Start("job")
	ctx := ContextWith(context.Background(), sp)
	if FromContext(ctx) != sp {
		t.Fatal("span did not round-trip through context")
	}
	// A nil span in a context is fine and children of it are no-ops.
	ctx = ContextWith(context.Background(), nil)
	c := FromContext(ctx).Child("x")
	c.End()
	sp.End()
}
