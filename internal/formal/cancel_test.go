package formal_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/formal"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
)

// TestCancelInterruptsSolve cancels a check in the middle of a solve.
// The multiplier with its operands swapped (a*b versus b*a) passes
// simulation and its miter does not collapse structurally, so proving
// depth 0 alone takes far longer than this test: cancelling the
// context 100 ms after the blast must stop that solve in flight and
// return ErrCancelled within 2 s, on both entries.
func TestCancelInterruptsSolve(t *testing.T) {
	m := dataset.ByName("multi_16bit")
	swapped := strings.Replace(m.Source, "p <= a * b;", "p <= b * a;", 1)
	if swapped == m.Source {
		t.Fatal("fixture rewrite did not apply")
	}
	a, b := compile(t, m.Source, m.Top), compile(t, swapped, m.Top)
	for _, entry := range []struct {
		name string
		run  func(a, b *sim.Program, clock string, k int, opts formal.Options) (formal.EquivResult, error)
	}{{"bmc", formal.BMCEquivOpts}, {"induction", formal.InductionEquivOpts}} {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelledAt atomic.Int64
		tr := obs.NewTracer("cancel")
		tr.OnEnd = func(sp obs.SpanInfo) {
			if sp.Name == "blast" {
				time.AfterFunc(100*time.Millisecond, func() {
					cancelledAt.Store(time.Now().UnixNano())
					cancel()
				})
			}
		}
		type outcome struct {
			res  formal.EquivResult
			err  error
			done time.Time
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := entry.run(a, b, m.Clock, formal.DefaultBMCDepth, formal.Options{Ctx: ctx, Span: tr.Start("check")})
			ch <- outcome{res, err, time.Now()}
		}()
		var o outcome
		select {
		case o = <-ch:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: still running 20 s in: the cancellation never reached the solver", entry.name)
		}
		cancel()
		if !errors.Is(o.err, formal.ErrCancelled) {
			t.Fatalf("%s: err = %v, want ErrCancelled", entry.name, o.err)
		}
		if len(o.res.Stats.Solves) != 1 {
			t.Fatalf("%s: %d solves recorded, want the one interrupted depth-0 solve", entry.name, len(o.res.Stats.Solves))
		}
		if lag := o.done.Sub(time.Unix(0, cancelledAt.Load())); lag > 2*time.Second {
			t.Fatalf("%s: returned %v after the cancellation", entry.name, lag)
		}
	}
}
