package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanInfo is the immutable record of a finished span, the unit both
// exporters consume: WriteChromeTrace renders a slice of them as a
// trace_event JSON file, and uvllmd forwards them per-job over the SSE
// event stream.
type SpanInfo struct {
	// ID is the span's tracer-unique identifier.
	ID int64 `json:"id"`
	// Parent is the parent span's ID, 0 for a root span.
	Parent int64 `json:"parent,omitempty"`
	// Name is the operation name (e.g. "iteration", "formal.bmc").
	Name string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// Dur is the span's duration.
	Dur time.Duration `json:"dur_ns"`
	// Args are optional span annotations.
	Args map[string]string `json:"args,omitempty"`
}

// Tracer collects a tree of spans for one run or job. It is safe for
// concurrent use. A nil *Tracer is the disabled fast path: Start
// returns a nil *Span and every span method no-ops.
type Tracer struct {
	mu    sync.Mutex
	runID string
	next  int64
	done  []SpanInfo

	// OnEnd, when set, is called synchronously for every finished span.
	// uvllmd's runner traces every job through it: per-span latency
	// histograms, the job's iteration events, the SSE span stream and
	// the slow-span log all come from this one hook.
	OnEnd func(SpanInfo)
}

// NewTracer returns a tracer for the given run identifier (propagated
// into every span's args as run_id when non-empty).
func NewTracer(runID string) *Tracer { return &Tracer{runID: runID} }

// RunID returns the tracer's run identifier ("" on a nil receiver).
func (t *Tracer) RunID() string {
	if t == nil {
		return ""
	}
	return t.runID
}

// Span is one timed operation in a tracer's span tree. Spans are
// strictly nested (a child ends before its parent), so the Chrome
// export renders as a flame graph. A nil *Span is a valid no-op
// handle, which is what instrumented code holds when tracing is off.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu   sync.Mutex
	args map[string]string
	done bool
}

// Start opens a root span. Nil tracer returns a nil (no-op) span.
func (t *Tracer) Start(name string) *Span { return t.start(name, 0) }

func (t *Tracer) start(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// Child opens a sub-span of s. Safe on a nil receiver (returns nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.id)
}

// SetArg attaches a key/value annotation to the span. Safe on a nil
// receiver (no-op).
func (s *Span) SetArg(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.args == nil {
		s.args = map[string]string{}
	}
	s.args[key] = value
	s.mu.Unlock()
}

// End closes the span, recording it with its tracer and firing the
// OnEnd hook. End is idempotent and safe on a nil receiver, so
// `defer sp.End()` is always correct.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	args := s.args
	s.mu.Unlock()

	t := s.t
	if t.runID != "" {
		if args == nil {
			args = map[string]string{}
		}
		if _, ok := args["run_id"]; !ok {
			args["run_id"] = t.runID
		}
	}
	info := SpanInfo{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, Dur: now.Sub(s.start), Args: args}
	t.mu.Lock()
	t.done = append(t.done, info)
	onEnd := t.OnEnd
	t.mu.Unlock()
	if onEnd != nil {
		onEnd(info)
	}
}

// Spans returns the finished spans recorded so far, ordered by start
// time (nil on a nil receiver).
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanInfo(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one Chrome trace_event "complete" ("ph":"X") record.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the tracer's finished spans as Chrome
// trace_event JSON (the array form loadable by chrome://tracing and
// Perfetto). All spans are emitted as complete events on one
// pid/tid, so strict nesting renders as a flame graph; the parent span
// ID is carried in args. Safe on a nil receiver (writes an empty
// trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans))
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	for _, s := range spans {
		args := make(map[string]string, len(s.Args)+2)
		for k, v := range s.Args {
			args[k] = v
		}
		args["span"] = fmt.Sprintf("%d", s.ID)
		if s.Parent != 0 {
			args["parent_span"] = fmt.Sprintf("%d", s.Parent)
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  1,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// ctxKey is the context key type for span propagation.
type ctxKey struct{}

// ContextWith returns ctx carrying sp; FromContext on the result (or
// any derived context) returns sp. Attaching a nil span is allowed and
// equivalent to no span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil if none — the
// nil result is a valid no-op span, so callers chain
// obs.FromContext(ctx).Child("phase") unconditionally.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
