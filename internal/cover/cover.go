// Package cover is the structural-coverage data model shared by both
// simulator backends, the coverage-directed stimulus layer and the
// evaluation harness. A Map is a registry of structural points —
// statements, branch arms, per-bit signal toggles, inferred FSM states
// and transitions — with a hit count per point. The point universe is
// fixed at registration time (internal/sim enumerates it from the
// elaborated design), so Percent has a meaningful denominator, Diff can
// report genuinely new coverage, and Encode renders a deterministic byte
// string that the cross-backend differential gates compare verbatim.
//
// A Map stores its counts in a slice indexed by slot in a Universe: an
// immutable, shareable point set that numbers its points. internal/sim
// builds one universe per coverage plan and option set, so every
// covering instance of a program — each lane of a batch, a clone and
// its source — counts over the same universe: sampling is one slice
// increment, Hit is a running count, and Merge and Gain between such
// maps are slot loops. A point outside the universe (Register or Add on
// a map from New, a merge across designs) takes a by-name path that
// copies the universe before growing it, so a shared universe is never
// written.
package cover

import (
	"fmt"
	"maps"
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

func sortPoints(ps []Point) {
	sort.Slice(ps, func(i, j int) bool { return less(ps[i], ps[j]) })
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
	sortPoints(ps)
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

// clone returns a private, growable copy of u with the same slots.
func (u *Universe) clone() *Universe {
	return &Universe{points: slices.Clone(u.points), index: maps.Clone(u.index)}
}

// Map is a structural coverage map: a point universe with a hit count
// per point, stored as one count per universe slot plus a running count
// of hit points. Maps from Universe.NewMap, and their clones, share
// their universe; a map from New, or one that registers a point its
// universe lacks, counts over a private copy that it grows in place. The
// zero value is not usable; construct with New or Universe.NewMap. A Map
// is not safe for concurrent mutation; its read-only methods, Clone
// included, never write to it.
type Map struct {
	u      *Universe
	counts []uint64 // by slot of u; len(counts) == len(u.points)
	hit    int      // slots with a non-zero count
	own    bool     // u is private to this map and grows in place
}

// New returns an empty map with an empty point universe.
func New() *Map {
	return &Map{u: &Universe{index: map[Point]int{}}, own: true}
}

// slot returns p's slot, adding p to the universe with a zero count if
// it is not there yet. A shared universe is copied before it grows, so
// no other map ever sees the new point; slots already in the universe
// keep their numbers.
func (m *Map) slot(p Point) int {
	if s, ok := m.u.index[p]; ok {
		return s
	}
	if !m.own {
		m.u, m.own = m.u.clone(), true
	}
	u := m.u
	s := len(u.points)
	u.points = append(u.points, p)
	u.index[p] = s
	m.counts = append(m.counts, 0)
	return s
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

// IncSlot adds one hit to slot s of the universe m was created over: the
// sampling path for the universe's builder, which knows every point's
// slot. Those slots stay valid when m grows.
func (m *Map) IncSlot(s int) {
	m.counts[s]++
	if m.counts[s] == 1 {
		m.hit++
	}
}

// Register adds a point to the universe with zero hits. Registering an
// existing point is a no-op (its count is preserved).
func (m *Map) Register(p Point) { m.slot(p) }

// Add registers the point if needed and increments its hit count by n.
func (m *Map) Add(p Point, n uint64) { m.add(m.slot(p), n) }

// Count returns the hit count of a point (0 if unregistered).
func (m *Map) Count(p Point) uint64 {
	if s, ok := m.u.index[p]; ok {
		return m.counts[s]
	}
	return 0
}

// Len returns the number of registered points.
func (m *Map) Len() int { return len(m.counts) }

// Hit returns the number of points with a non-zero count.
func (m *Map) Hit() int { return m.hit }

// Percent returns hit points over registered points in [0,100]; an empty
// universe scores 0.
func (m *Map) Percent() float64 {
	if len(m.counts) == 0 {
		return 0
	}
	return 100 * float64(m.hit) / float64(len(m.counts))
}

// KindPercent returns the percent restricted to one kind, and whether the
// universe has any points of that kind.
func (m *Map) KindPercent(k Kind) (float64, bool) {
	total, hit := 0, 0
	for s, p := range m.u.points {
		if p.Kind != k {
			continue
		}
		total++
		if m.counts[s] > 0 {
			hit++
		}
	}
	if total == 0 {
		return 0, false
	}
	return 100 * float64(hit) / float64(total), true
}

// Merge folds other into m: the universes union, counts add. It returns m.
// Over one universe this is a slot loop.
func (m *Map) Merge(other *Map) *Map {
	if other == nil {
		return m
	}
	if other.u == m.u {
		for s, c := range other.counts {
			if c != 0 {
				m.add(s, c)
			}
		}
		return m
	}
	for s, c := range other.counts {
		m.add(m.slot(other.u.points[s]), c)
	}
	return m
}

// hits reports whether other's slot s is hit in m.
func (m *Map) hits(other *Map, s int) bool {
	if other.u == m.u {
		return m.counts[s] != 0
	}
	return m.Count(other.u.points[s]) != 0
}

// Gain returns how many points hit in other are not yet hit in m — the
// new-coverage signal the directed stimulus scheduler ranks candidates
// by. Points absent from m's universe count as new.
func (m *Map) Gain(other *Map) int {
	if other == nil {
		return 0
	}
	n := 0
	for s, c := range other.counts {
		if c != 0 && !m.hits(other, s) {
			n++
		}
	}
	return n
}

// Diff returns the points hit in other but not in m, sorted.
func (m *Map) Diff(other *Map) []Point {
	var out []Point
	if other == nil {
		return out
	}
	for s, c := range other.counts {
		if c != 0 && !m.hits(other, s) {
			out = append(out, other.u.points[s])
		}
	}
	sortPoints(out)
	return out
}

// Clone returns a deep copy of m. The copy shares m's universe unless m
// owns a private one, which it then copies too.
func (m *Map) Clone() *Map {
	out := &Map{u: m.u, counts: slices.Clone(m.counts), hit: m.hit}
	if m.own {
		out.u, out.own = m.u.clone(), true
	}
	return out
}

// sortedSlots returns m's slots in point order. A universe from
// NewUniverse is already in that order, which the sort detects in
// linear time.
func (m *Map) sortedSlots() []int {
	ss := make([]int, len(m.counts))
	for s := range ss {
		ss[s] = s
	}
	sort.Slice(ss, func(i, j int) bool { return less(m.u.points[ss[i]], m.u.points[ss[j]]) })
	return ss
}

// Points returns the full universe, sorted.
func (m *Map) Points() []Point {
	out := make([]Point, 0, len(m.counts))
	for _, s := range m.sortedSlots() {
		out = append(out, m.u.points[s])
	}
	return out
}

// Encode renders the map as a deterministic byte string — one
// "kind:name=count" line per point in sorted order — suitable for
// byte-identity assertions across simulator backends.
func (m *Map) Encode() []byte {
	var b strings.Builder
	for _, s := range m.sortedSlots() {
		fmt.Fprintf(&b, "%s=%d\n", m.u.points[s], m.counts[s])
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
		for _, s := range m.sortedSlots() {
			if m.counts[s] > 0 {
				continue
			}
			if missed < maxMiss {
				fmt.Fprintf(&b, "  MISS %s\n", m.u.points[s])
			}
			missed++
		}
		if missed > maxMiss {
			fmt.Fprintf(&b, "  ... %d more missed points\n", missed-maxMiss)
		}
	}
	return b.String()
}
