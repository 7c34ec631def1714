// Package cover is the structural-coverage data model shared by both
// simulator backends, the coverage-directed stimulus layer and the
// evaluation harness. A Map counts hits on a fixed universe of
// structural points — statements, branch arms, per-bit signal toggles,
// inferred FSM states and transitions — that internal/sim enumerates from
// the elaborated design before the first sample, so Percent has a
// meaningful denominator and Encode renders a deterministic byte string
// that the cross-backend differential gates compare verbatim.
//
// A Map stores its counts in a slice indexed by slot in a Universe: an
// immutable, shareable point set that numbers its points in point order.
// internal/sim builds one universe per coverage plan (a Program under one
// harness clock), so every covering instance of a program — each lane of
// a batch, a clone and its source — counts over the same universe:
// sampling is one slice increment, Hit is a running count, and Merge and
// Gain are slot loops. A Map never grows: maps of different universes
// are never combined.
package cover

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind classifies a structural coverage point.
type Kind uint8

// Point kinds. The order is part of the deterministic encoding.
const (
	// KindStmt is one executable statement of a process body.
	KindStmt Kind = iota
	// KindBranch is one arm of an if or case statement (including the
	// implicit empty else and the case default).
	KindBranch
	// KindToggle0 is one signal bit observed at 0.
	KindToggle0
	// KindToggle1 is one signal bit observed at 1.
	KindToggle1
	// KindState is one occupied state of an inferred FSM register.
	KindState
	// KindTrans is one taken state transition of an inferred FSM register.
	KindTrans
)

var kindNames = [...]string{"stmt", "branch", "tog0", "tog1", "state", "trans"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Point identifies one structural coverage point within a design. Name is
// hierarchical and stable across elaborations of the same source (e.g.
// "p3.s1.if" for a statement, "u1.state=2" for an FSM state).
type Point struct {
	Kind Kind
	Name string
}

// String renders the point as kind:name.
func (p Point) String() string { return p.Kind.String() + ":" + p.Name }

// less is the deterministic point order: by kind, then by name.
func less(a, b Point) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Name < b.Name
}

// Universe is a point set that gives every point a slot: slot s of a Map
// over the universe counts the universe's s-th point. A universe from
// NewUniverse is immutable and safe to share between goroutines.
type Universe struct {
	points []Point       // by slot
	index  map[Point]int // point → slot
}

// NewUniverse returns the universe of the given points in point order,
// with duplicates collapsed onto one slot.
func NewUniverse(points []Point) *Universe {
	ps := slices.Clone(points)
	sort.Slice(ps, func(i, j int) bool { return less(ps[i], ps[j]) })
	ps = slices.Compact(ps)
	u := &Universe{points: ps, index: make(map[Point]int, len(ps))}
	for s, p := range ps {
		u.index[p] = s
	}
	return u
}

// Slot returns the slot of p, and whether p is in the universe.
func (u *Universe) Slot(p Point) (int, bool) {
	s, ok := u.index[p]
	return s, ok
}

// NewMap returns a map over u with every count zero.
func (u *Universe) NewMap() *Map {
	return &Map{u: u, counts: make([]uint64, len(u.points))}
}

// Map is a structural coverage map: a hit count per point of its
// universe, stored as one count per universe slot plus a running count
// of hit points. A map and its clones share their universe. The zero
// value is not usable; construct with Universe.NewMap. A Map is not safe
// for concurrent mutation; its read-only methods, Clone included, never
// write to it.
type Map struct {
	u      *Universe
	counts []uint64 // by slot of u; len(counts) == len(u.points)
	hit    int      // slots with a non-zero count
}

// add adds n to slot s, keeping the hit count.
func (m *Map) add(s int, n uint64) {
	old := m.counts[s]
	m.counts[s] = old + n
	switch {
	case old == 0 && n != 0:
		m.hit++
	case old != 0 && m.counts[s] == 0: // wrapped
		m.hit--
	}
}

// IncSlot adds one hit to slot s of m's universe: the sampling path for
// the universe's builder, which knows every point's slot.
func (m *Map) IncSlot(s int) {
	m.counts[s]++
	if m.counts[s] == 1 {
		m.hit++
	}
}

// Count returns the hit count of a point (0 if outside the universe).
func (m *Map) Count(p Point) uint64 {
	if s, ok := m.u.index[p]; ok {
		return m.counts[s]
	}
	return 0
}

// Len returns the number of points in the universe.
func (m *Map) Len() int { return len(m.counts) }

// Hit returns the number of points with a non-zero count.
func (m *Map) Hit() int { return m.hit }

// Percent returns hit points over universe points in [0,100]; an empty
// universe scores 0.
func (m *Map) Percent() float64 {
	if len(m.counts) == 0 {
		return 0
	}
	return 100 * float64(m.hit) / float64(len(m.counts))
}

// Merge folds other into m: counts add, slot by slot. Both maps must
// count over one universe. It returns m.
func (m *Map) Merge(other *Map) *Map {
	if other == nil {
		return m
	}
	for s, c := range other.counts {
		if c != 0 {
			m.add(s, c)
		}
	}
	return m
}

// Gain returns how many points hit in other are not yet hit in m — the
// new-coverage signal the directed stimulus scheduler ranks candidates
// by. Both maps must count over one universe.
func (m *Map) Gain(other *Map) int {
	if other == nil {
		return 0
	}
	n := 0
	for s, c := range other.counts {
		if c != 0 && m.counts[s] == 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of m's counts over the same universe.
func (m *Map) Clone() *Map {
	return &Map{u: m.u, counts: slices.Clone(m.counts), hit: m.hit}
}

// Points returns the full universe, sorted.
func (m *Map) Points() []Point { return slices.Clone(m.u.points) }

// Encode renders the map as a deterministic byte string — one
// "kind:name=count" line per point in sorted order — suitable for
// byte-identity assertions across simulator backends.
func (m *Map) Encode() []byte {
	var b strings.Builder
	for s, p := range m.u.points {
		fmt.Fprintf(&b, "%s=%d\n", p, m.counts[s])
	}
	return []byte(b.String())
}

// Report renders a human-readable summary: overall percent, a per-kind
// breakdown and the sorted list of missed points (capped at maxMiss; 0
// means no miss list).
func (m *Map) Report(maxMiss int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "structural coverage: %.1f%% (%d/%d points)\n", m.Percent(), m.Hit(), m.Len())
	var total, hit [KindTrans + 1]int
	for s, p := range m.u.points {
		total[p.Kind]++
		if m.counts[s] > 0 {
			hit[p.Kind]++
		}
	}
	for k := KindStmt; k <= KindTrans; k++ {
		if total[k] > 0 {
			fmt.Fprintf(&b, "  %-6s %6.1f%% (%d/%d)\n", k, 100*float64(hit[k])/float64(total[k]), hit[k], total[k])
		}
	}
	if maxMiss > 0 {
		missed := 0
		for s, p := range m.u.points {
			if m.counts[s] > 0 {
				continue
			}
			if missed < maxMiss {
				fmt.Fprintf(&b, "  MISS %s\n", p)
			}
			missed++
		}
		if missed > maxMiss {
			fmt.Fprintf(&b, "  ... %d more missed points\n", missed-maxMiss)
		}
	}
	return b.String()
}
