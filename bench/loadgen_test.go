package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 100, 1000)
	b := poissonSchedule(7, 100, 1000)
	c := poissonSchedule(8, 100, 1000)
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("asked for 1000 arrivals, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	if c[0] == a[0] {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	// 1000 arrivals at 100/s span 10 s; a span beyond five standard
	// deviations (sqrt(1000)/100 s ~ 0.32 s) means the rate is wrong.
	if span := a[len(a)-1].Seconds(); math.Abs(span-10) > 1.6 {
		t.Errorf("1000 arrivals at 100/s span %.2f s", span)
	}
}

// A submit that stalls is charged to the requests due behind it: their
// latency runs from their due time, not from when a client picked them
// up, and the generator's lateness shows the stall.
func TestDueTimeLatencyChargesStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	g := &loadGen{
		clients: 1,
		timeout: time.Second,
		submit: func(i int) (func(context.Context) error, error) {
			if i == 0 {
				time.Sleep(stall)
			}
			return func(context.Context) error { return nil }, nil
		},
		fetch: func(int) error { return nil },
	}
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	out := g.open(time.Now(), due)
	if len(out) != 3 {
		t.Fatalf("%d timings, want 3", len(out))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	for _, i := range []int{1, 2} {
		r := out[i]
		wantMin := ms(stall - due[i])
		if r.LatencyMS() < wantMin {
			t.Errorf("request %d latency %.1f ms, want >= %.1f ms (stall charged)", i, r.LatencyMS(), wantMin)
		}
		if r.LateMS() < wantMin {
			t.Errorf("request %d sent %.1f ms late, want >= %.1f ms", i, r.LateMS(), wantMin)
		}
		if own := ms(r.Done.Sub(r.Sent)); own >= r.LatencyMS() {
			t.Errorf("request %d: latency %.1f ms does not exceed its own service time %.1f ms", i, r.LatencyMS(), own)
		}
	}
}

// The client pool bounds request work: never more than `clients`
// submits and fetches run at once, however many jobs are outstanding.
func TestLoadGenBoundsClients(t *testing.T) {
	var inFlight, peak atomic.Int64
	work := func() {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}
	g := &loadGen{
		clients: 2,
		timeout: time.Second,
		submit: func(int) (func(context.Context) error, error) {
			work()
			return func(context.Context) error { time.Sleep(2 * time.Millisecond); return nil }, nil
		},
		fetch: func(int) error { work(); return nil },
	}
	out := g.open(time.Now(), make([]time.Duration, 40))
	if len(out) != 40 {
		t.Fatalf("%d timings, want 40", len(out))
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once, want <= 2", p)
	}
	closed := g.closed(4, 50*time.Millisecond)
	if len(closed) == 0 {
		t.Error("closed loop issued no requests")
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once in the closed loop, want <= 2", p)
	}
}

// A job that never reaches a terminal state fails once its deadline,
// counted from its due time, passes.
func TestLoadGenTimeout(t *testing.T) {
	g := &loadGen{
		clients: 1,
		timeout: 20 * time.Millisecond,
		submit: func(int) (func(context.Context) error, error) {
			return func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, nil
		},
		fetch: func(int) error { t.Error("fetch of a job that never finished"); return nil },
	}
	out := g.open(time.Now(), []time.Duration{0})
	if len(out) != 1 || out[0].Err == nil {
		t.Fatalf("timings %+v: want one failed request", out)
	}
}
