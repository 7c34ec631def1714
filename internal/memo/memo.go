// Package memo provides the one bounded, single-flight, counter-bearing
// memo table behind every content-addressed cache in the pipeline: the
// compile cache (sim.Cache), the per-job parse table of a compile-cache
// scope (sim.Cache.Scope: each source's AST, syntax errors and lint
// report, dropped with the job), the golden-trace memo (uvm.TraceMemo)
// and the random stimulus it keeps next to its traces
// (uvm.TraceMemo.Materialize), the data-flow-graph memo (locate.DFGFor),
// the fault generator's cells (faultgen.Generate) and the expert verdicts
// of one exp.Run. Keeping the eviction, single-flight and statistics
// semantics in one place means a fix to any of them applies to all of
// them.
//
// An M's value is complete once Do returns it. The one table whose value
// grows after that is not an M: faultgen's bit-parallel classifier keeps
// the most recent key's random lane columns in a one-entry table and
// draws them lazily, chunk by chunk, as calls run longer. Each chunk is
// published whole and never written again, so the prefix a reader sees
// is immutable while the value grows behind it.
package memo

import (
	"errors"
	"sync"
)

// M is a bounded single-flight memo: Do computes each key's value at
// most once (concurrent callers on one key share the result, including
// errors), counts hits and misses, and evicts the oldest half of the
// entries when the limit is reached. Values are treated as immutable by
// all readers. M is safe for concurrent use; the zero value is not
// usable — construct with New.
type M[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	order   []K // insertion order, for bounded eviction
	limit   int

	hits      int64
	misses    int64
	evictions int64
}

type entry[V any] struct {
	once sync.Once
	val  V
	err  error
	hits int64 // guarded by M.mu
}

// New returns an empty memo holding at most limit entries (limit must be
// positive).
func New[K comparable, V any](limit int) *M[K, V] {
	if limit <= 0 {
		panic("memo: non-positive limit")
	}
	return &M[K, V]{entries: map[K]*entry[V]{}, limit: limit}
}

// Do returns the memoized value for k, running compute on first use.
// Errors are memoized too: deterministic failures are part of a key's
// identity and replays share them. A panic is not: the panicking caller
// sees it unchanged, callers already waiting on the key get an error,
// and the key is dropped so the next Do recomputes.
func (m *M[K, V]) Do(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[k]
	if ok {
		m.hits++
		e.hits++
	} else {
		m.misses++
		if len(m.entries) >= m.limit {
			m.evictLocked()
		}
		e = &entry[V]{}
		m.entries[k] = e
		m.order = append(m.order, k)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		returned := false
		defer func() {
			if !returned {
				e.err = errPanicked
				m.drop(k, e)
			}
		}()
		e.val, e.err = compute()
		returned = true
	})
	return e.val, e.err
}

// errPanicked is what Do returns to the callers that were waiting on a
// key whose computation panicked.
var errPanicked = errors.New("memo: computation panicked")

// drop removes k if e is still its resident entry.
func (m *M[K, V]) drop(k K, e *entry[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[k] != e {
		return
	}
	delete(m.entries, k)
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// evictLocked drops the oldest half of the entries. Called with mu held.
// An in-flight computation on an evicted entry still completes for its
// callers; the result just stops being cached.
func (m *M[K, V]) evictLocked() {
	n := len(m.order) / 2
	if n == 0 {
		n = 1
	}
	for _, k := range m.order[:n] {
		if _, ok := m.entries[k]; ok {
			delete(m.entries, k)
			m.evictions++
		}
	}
	m.order = append(m.order[:0], m.order[n:]...)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// HitRatePct is the share of lookups that hit, in percent; 0 before
// any lookup.
func (s Stats) HitRatePct() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the memo counters.
func (m *M[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.entries)}
}

// EntryHits reports whether k is resident and how many hits it has
// served.
func (m *M[K, V]) EntryHits(k K) (hits int64, resident bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[k]; ok {
		return e.hits, true
	}
	return 0, false
}
