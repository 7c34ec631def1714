package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleFlight: concurrent callers on one key run compute once and
// share the value.
func TestSingleFlight(t *testing.T) {
	m := New[int, int](8)
	var computes int32
	var wg sync.WaitGroup
	const workers = 16
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do(7, func() (int, error) {
				atomic.AddInt32(&computes, 1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != workers-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if hits, ok := m.EntryHits(7); !ok || hits != workers-1 {
		t.Fatalf("EntryHits = (%d, %v)", hits, ok)
	}
}

// TestErrorsAreMemoized: a failing compute is cached like a value.
func TestErrorsAreMemoized(t *testing.T) {
	m := New[string, int](8)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := m.Do("k", func() (int, error) { calls++; return 0, boom }); err != boom {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1", calls)
	}
}

// TestEviction: the table stays bounded and counts evictions.
func TestEviction(t *testing.T) {
	m := New[int, int](4)
	for i := 0; i < 10; i++ {
		if _, err := m.Do(i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Entries > 4 {
		t.Fatalf("grew to %d entries past limit 4", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if _, ok := m.EntryHits(0); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

// TestDoPanicDoesNotPoison: a panicking compute reaches its caller
// unchanged and is not memoized. A caller already waiting on the key
// gets an error instead of a zero value, and the next Do recomputes.
func TestDoPanicDoesNotPoison(t *testing.T) {
	m := New[string, *int](8)
	release := make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		m.Do("k", func() (*int, error) {
			<-release
			panic("boom")
		})
	}()
	for m.Stats().Misses == 0 {
		runtime.Gosched()
	}
	waiter := make(chan error)
	go func() {
		v, err := m.Do("k", func() (*int, error) {
			t.Error("waiter ran its own compute")
			return nil, nil
		})
		if v != nil {
			t.Errorf("waiter got value %v", v)
		}
		waiter <- err
	}()
	for m.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("panicking caller recovered %v, want boom", r)
	}
	if err := <-waiter; err == nil {
		t.Fatal("waiter got no error from a panicked compute")
	}

	one := 1
	v, err := m.Do("k", func() (*int, error) { return &one, nil })
	if err != nil || v != &one {
		t.Fatalf("Do after panic = (%v, %v), want a fresh compute", v, err)
	}
	if st := m.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 entry", st)
	}
	if v, err := m.Do("k", func() (*int, error) { return nil, errors.New("recomputed") }); err != nil || v != &one {
		t.Fatalf("recomputed value not memoized: (%v, %v)", v, err)
	}
}
