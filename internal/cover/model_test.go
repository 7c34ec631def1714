package cover

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refMap is the reference model for Map: a plain point → count map with
// the semantics Map had before it stored counts by slot.
type refMap map[Point]uint64

func (r refMap) merge(o refMap) {
	for p, c := range o {
		r[p] += c
	}
}

// gain counts the points hit in o that r has not hit.
func (r refMap) gain(o refMap) int {
	n := 0
	for p, c := range o {
		if c > 0 && r[p] == 0 {
			n++
		}
	}
	return n
}

func (r refMap) points() []Point {
	out := make([]Point, 0, len(r))
	for p := range r {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func (r refMap) hit() int {
	n := 0
	for _, c := range r {
		if c > 0 {
			n++
		}
	}
	return n
}

func (r refMap) percent() float64 {
	if len(r) == 0 {
		return 0
	}
	return 100 * float64(r.hit()) / float64(len(r))
}

func (r refMap) encode() []byte {
	var b strings.Builder
	for _, p := range r.points() {
		fmt.Fprintf(&b, "%s=%d\n", p, r[p])
	}
	return []byte(b.String())
}

func (r refMap) report(maxMiss int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "structural coverage: %.1f%% (%d/%d points)\n", r.percent(), r.hit(), len(r))
	var total, hit [KindTrans + 1]int
	for p, c := range r {
		total[p.Kind]++
		if c > 0 {
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
		for _, p := range r.points() {
			if r[p] > 0 {
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

// modelEntry is one map under test, its reference, and the universe it
// was created over, whose slots IncSlot uses.
type modelEntry struct {
	m    *Map
	ref  refMap
	over *Universe
	pts  []Point // over's points, for picking a slot
}

// checkModel compares every observable of m with its reference.
func checkModel(t *testing.T, step int, op string, e *modelEntry, probes []Point) {
	t.Helper()
	m, r := e.m, e.ref
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s = %v, want %v", step, op, what, got, want)
	}
	if m.Len() != len(r) {
		fail("Len", m.Len(), len(r))
	}
	if m.Hit() != r.hit() {
		fail("Hit", m.Hit(), r.hit())
	}
	if m.Percent() != r.percent() {
		fail("Percent", m.Percent(), r.percent())
	}
	for _, p := range probes {
		if m.Count(p) != r[p] {
			fail("Count("+p.String()+")", m.Count(p), r[p])
		}
	}
	if got, want := m.Points(), r.points(); !slices.Equal(got, want) {
		fail("Points", got, want)
	}
	if got, want := m.Encode(), r.encode(); !bytes.Equal(got, want) {
		fail("Encode", string(got), string(want))
	}
	if got, want := m.Report(3), r.report(3); got != want {
		fail("Report", got, want)
	}
}

// TestMapMatchesReferenceModel runs seeded random operation sequences
// over maps of two universes that share points, and after every step
// compares every map's observables with a plain map[Point]uint64 model.
// It pins IncSlot, the Merge and Gain slot loops between maps of one
// universe (maps of different universes are never combined), Encode and
// a read-only Clone.
func TestMapMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed, 400) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	// A small name space so the universes overlap.
	var all []Point
	for k := KindStmt; k <= KindTrans; k++ {
		for _, n := range []string{"a", "b", "c", "d.x", "e[0]"} {
			all = append(all, Point{k, n})
		}
	}
	var src1, src2 []Point
	for _, p := range all {
		switch rng.Intn(4) {
		case 0:
			src1 = append(src1, p)
		case 1:
			src2 = append(src2, p)
		case 2:
			src1 = append(src1, p, p) // shared, and a duplicate input
			src2 = append(src2, p)
		}
	}
	u1, u2 := NewUniverse(src1), NewUniverse(src2)
	over := func(u *Universe, src []Point) *modelEntry {
		r := refMap{}
		for _, p := range src {
			r[p] = 0
		}
		return &modelEntry{m: u.NewMap(), ref: r, over: u, pts: src}
	}
	pool := []*modelEntry{over(u1, src1), over(u1, src1), over(u2, src2), over(u2, src2)}
	// inc adds one hit to a random point of e's universe.
	inc := func(e *modelEntry) string {
		p := e.pts[rng.Intn(len(e.pts))]
		s, ok := e.over.Slot(p)
		if !ok {
			t.Fatalf("%s missing from its own universe", p)
		}
		e.m.IncSlot(s)
		e.ref[p]++
		return p.String()
	}
	// pair picks two entries over one universe.
	pair := func() (*modelEntry, *modelEntry) {
		a := pool[rng.Intn(len(pool))]
		for {
			if b := pool[rng.Intn(len(pool))]; b.over == a.over {
				return a, b
			}
		}
	}
	for step := 0; step < steps; step++ {
		var op string
		switch rng.Intn(7) {
		case 0, 1:
			op = "IncSlot " + inc(pool[rng.Intn(len(pool))])
		case 2:
			a, b := pair()
			op = "Merge"
			if got := a.m.Merge(b.m); got != a.m {
				t.Fatalf("step %d: Merge did not return its receiver", step)
			}
			a.ref.merge(b.ref)
		case 3:
			a, b := pair()
			op = "Gain"
			if got, want := a.m.Gain(b.m), a.ref.gain(b.ref); got != want {
				t.Fatalf("step %d: Gain = %d, want %d", step, got, want)
			}
		case 4:
			e := pool[rng.Intn(len(pool))]
			op = "Merge/Gain nil"
			if e.m.Merge(nil) != e.m || e.m.Gain(nil) != 0 {
				t.Fatalf("step %d: nil other is not a no-op", step)
			}
		default:
			e := pool[rng.Intn(len(pool))]
			op = "Clone"
			before := *e.m
			c := e.m.Clone()
			if e.m.u != before.u || e.m.hit != before.hit || len(e.m.counts) != len(before.counts) {
				t.Fatalf("step %d: Clone wrote to its receiver", step)
			}
			if c.u != e.m.u {
				t.Fatalf("step %d: Clone left its universe", step)
			}
			ref := refMap{}
			ref.merge(e.ref)
			ce := &modelEntry{m: c, ref: ref, over: e.over, pts: e.pts}
			// Mutate both copies: neither may see the other's writes.
			op += ", IncSlot " + inc(e) + ", clone IncSlot " + inc(ce)
			if len(pool) < 10 {
				pool = append(pool, ce)
			} else {
				pool[rng.Intn(len(pool))] = ce
			}
		}
		for _, e := range pool {
			checkModel(t, step, op, e, all)
		}
	}
}

// TestCloneConcurrentReaders: Clone and the read-only methods may run
// concurrently on one map (the race detector checks it), and clones keep
// sharing the map's universe.
func TestCloneConcurrentReaders(t *testing.T) {
	u := NewUniverse([]Point{{KindStmt, "a"}, {KindStmt, "b"}})
	m := u.NewMap()
	addPoint(t, m, Point{KindStmt, "a"}, 1)
	var wg sync.WaitGroup
	clones := make([]*Map, 4)
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clones[i] = m.Clone()
			_ = m.Encode()
			_ = m.Gain(clones[i])
		}(i)
	}
	wg.Wait()
	for _, c := range clones {
		if c.u != u {
			t.Fatal("clone left the shared universe")
		}
		if !bytes.Equal(c.Encode(), m.Encode()) {
			t.Fatalf("clone encodes %q, want %q", c.Encode(), m.Encode())
		}
	}
}
