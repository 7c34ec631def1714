package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of an open-loop phase of n
// requests: Poisson arrivals at rate per second, drawn from seed alone,
// so the same seed always yields the same schedule.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// reqTiming is the client-side record of one request. Latency runs from
// Due, not from Sent: a request that waited for a free client behind a
// stalled one is charged that wait.
type reqTiming struct {
	Due        time.Time
	Sent       time.Time // a client picked the request up
	Submitted  time.Time // submit response received
	Terminal   time.Time // the job reached a terminal state
	FetchStart time.Time
	Done       time.Time // response carrying the terminal result received
	Err        error
}

// LatencyMS is the due-to-done latency in milliseconds.
func (r reqTiming) LatencyMS() float64 { return ms(r.Done.Sub(r.Due)) }

// LateMS is how late the generator handed the request to a client.
func (r reqTiming) LateMS() float64 { return ms(r.Sent.Sub(r.Due)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadGen drives one load phase. A single generator goroutine hands each
// request to the client pool when it is due; `clients` goroutines do all
// request work (submit and fetch), so at most that many requests are in
// flight on the wire. submit returns a wait function that blocks until
// the request's job is terminal; one waiter goroutine per outstanding
// job blocks on it and then queues the fetch back to the pool. A job not
// terminal within timeout of its due time fails.
type loadGen struct {
	clients int
	timeout time.Duration
	submit  func(i int) (wait func(context.Context) error, err error)
	fetch   func(i int) error
}

type loadTask struct {
	i     int
	fetch bool
}

// open runs an open-loop phase: request i is due at start+due[i],
// whether or not earlier requests have finished.
func (g *loadGen) open(start time.Time, due []time.Duration) []reqTiming {
	return g.run(func(i int) (time.Time, bool) {
		if i >= len(due) {
			return time.Time{}, false
		}
		at := start.Add(due[i])
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		return at, true
	}, nil)
}

// closed runs a closed-loop phase for dur: a new request is due whenever
// fewer than window are outstanding.
func (g *loadGen) closed(window int, dur time.Duration) []reqTiming {
	start := time.Now()
	slots := make(chan struct{}, window) // counting semaphore
	return g.run(func(int) (time.Time, bool) {
		slots <- struct{}{}
		if time.Since(start) >= dur {
			<-slots
			return time.Time{}, false
		}
		return time.Now(), true
	}, func() { <-slots })
}

// run issues requests while next yields due times and returns one timing
// per request; done, when set, runs as each request finishes.
func (g *loadGen) run(next func(i int) (time.Time, bool), done func()) []reqTiming {
	var (
		mu       sync.Mutex // guards out across clients and waiters
		out      []reqTiming
		pending  sync.WaitGroup // requests not yet finished
		clientWG sync.WaitGroup
	)
	tasks := make(chan loadTask)
	stamp := func(i int, f func(*reqTiming)) {
		mu.Lock()
		f(&out[i])
		mu.Unlock()
	}
	finish := func(i int, err error) {
		stamp(i, func(r *reqTiming) { r.Done, r.Err = time.Now(), err })
		if done != nil {
			done()
		}
		pending.Done()
	}
	for c := 0; c < g.clients; c++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for t := range tasks {
				if t.fetch {
					stamp(t.i, func(r *reqTiming) { r.FetchStart = time.Now() })
					finish(t.i, g.fetch(t.i))
					continue
				}
				stamp(t.i, func(r *reqTiming) { r.Sent = time.Now() })
				wait, err := g.submit(t.i)
				var deadline time.Time
				stamp(t.i, func(r *reqTiming) { r.Submitted, deadline = time.Now(), r.Due.Add(g.timeout) })
				if err != nil {
					finish(t.i, err)
					continue
				}
				go func(i int) {
					ctx, cancel := context.WithDeadline(context.Background(), deadline)
					err := wait(ctx)
					cancel()
					stamp(i, func(r *reqTiming) { r.Terminal = time.Now() })
					if err != nil {
						finish(i, err)
						return
					}
					tasks <- loadTask{i: i, fetch: true}
				}(t.i)
			}
		}()
	}
	for i := 0; ; i++ {
		at, ok := next(i)
		if !ok {
			break
		}
		mu.Lock()
		out = append(out, reqTiming{Due: at})
		mu.Unlock()
		pending.Add(1)
		tasks <- loadTask{i: i}
	}
	pending.Wait()
	close(tasks)
	clientWG.Wait()
	return out
}
