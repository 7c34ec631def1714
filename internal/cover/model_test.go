package cover

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

func (r refMap) newHits(o refMap) []Point {
	var out []Point
	for p, c := range o {
		if c > 0 && r[p] == 0 {
			out = append(out, p)
		}
	}
	sortPoints(out)
	return out
}

func (r refMap) points() []Point {
	out := make([]Point, 0, len(r))
	for p := range r {
		out = append(out, p)
	}
	sortPoints(out)
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

func (r refMap) kindPercent(k Kind) (float64, bool) {
	total, hit := 0, 0
	for p, c := range r {
		if p.Kind == k {
			total++
			if c > 0 {
				hit++
			}
		}
	}
	if total == 0 {
		return 0, false
	}
	return 100 * float64(hit) / float64(total), true
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
// was created over (nil for maps from New), whose slots IncSlot may use.
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
	for k := KindStmt; k <= KindTrans; k++ {
		gp, gok := m.KindPercent(k)
		wp, wok := r.kindPercent(k)
		if gp != wp || gok != wok {
			fail(fmt.Sprintf("KindPercent(%s)", k), fmt.Sprint(gp, gok), fmt.Sprint(wp, wok))
		}
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
// over maps from New and maps over two universes that share points, and
// after every step compares every map's observables with a plain
// map[Point]uint64 model. It pins the copy-on-write universe growth, the
// same-universe Merge/Gain slot loops, zero-count registration and a
// read-only Clone.
func TestMapMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed, 400) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	// A small name space so the universes overlap and random points
	// often land on registered ones.
	var all []Point
	for k := KindStmt; k <= KindTrans; k++ {
		for _, n := range []string{"a", "b", "c", "d.x", "e[0]"} {
			all = append(all, Point{k, n})
		}
	}
	pick := func() Point { return all[rng.Intn(len(all))] }
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
	pool := []*modelEntry{
		{m: New(), ref: refMap{}}, {m: New(), ref: refMap{}},
		over(u1, src1), over(u1, src1), over(u2, src2), over(u2, src2),
	}
	// pair picks two entries, preferring one universe half the time.
	pair := func() (*modelEntry, *modelEntry) {
		a := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			for _, b := range pool {
				if b != a && b.m.u == a.m.u {
					return a, b
				}
			}
		}
		return a, pool[rng.Intn(len(pool))]
	}
	for step := 0; step < steps; step++ {
		var op string
		switch rng.Intn(9) {
		case 0:
			e, p := pool[rng.Intn(len(pool))], pick()
			op = "Register " + p.String()
			e.m.Register(p)
			e.ref[p] += 0
		case 1:
			e, p, n := pool[rng.Intn(len(pool))], pick(), uint64(rng.Intn(3))
			op = fmt.Sprintf("Add %s %d", p, n)
			e.m.Add(p, n)
			e.ref[p] += n
		case 2:
			e := pool[rng.Intn(len(pool))]
			if e.over == nil || len(e.pts) == 0 {
				continue
			}
			p := e.pts[rng.Intn(len(e.pts))]
			s, ok := e.over.Slot(p)
			if !ok {
				t.Fatalf("step %d: %s missing from its own universe", step, p)
			}
			op = "IncSlot " + p.String()
			e.m.IncSlot(s)
			e.ref[p]++
		case 3:
			a, b := pair()
			op = "Merge"
			if got := a.m.Merge(b.m); got != a.m {
				t.Fatalf("step %d: Merge did not return its receiver", step)
			}
			a.ref.merge(b.ref)
		case 4:
			a, b := pair()
			op = "Gain/Diff"
			if got, want := a.m.Gain(b.m), len(a.ref.newHits(b.ref)); got != want {
				t.Fatalf("step %d: Gain = %d, want %d", step, got, want)
			}
			if got, want := a.m.Diff(b.m), a.ref.newHits(b.ref); !slices.Equal(got, want) {
				t.Fatalf("step %d: Diff = %v, want %v", step, got, want)
			}
		case 5:
			e := pool[rng.Intn(len(pool))]
			op = "Merge/Gain/Diff nil"
			if e.m.Merge(nil) != e.m || e.m.Gain(nil) != 0 || e.m.Diff(nil) != nil {
				t.Fatalf("step %d: nil other is not a no-op", step)
			}
		default:
			e := pool[rng.Intn(len(pool))]
			op = "Clone"
			before := *e.m
			c := e.m.Clone()
			if e.m.u != before.u || e.m.own != before.own || e.m.hit != before.hit ||
				len(e.m.counts) != len(before.counts) || len(e.m.u.points) != len(before.u.points) {
				t.Fatalf("step %d: Clone wrote to its receiver", step)
			}
			ref := refMap{}
			ref.merge(e.ref)
			ce := &modelEntry{m: c, ref: ref, over: e.over, pts: e.pts}
			// Mutate both copies: neither may see the other's writes.
			p := pick()
			e.m.Add(p, 1)
			e.ref[p]++
			q := pick()
			c.Add(q, 2)
			ce.ref[q] += 2
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
// concurrently on one map (the race detector checks it), and clones of
// a shared-universe map keep sharing it.
func TestCloneConcurrentReaders(t *testing.T) {
	u := NewUniverse([]Point{{KindStmt, "a"}, {KindStmt, "b"}})
	for _, m := range []*Map{u.NewMap(), New()} {
		m.Add(Point{KindStmt, "a"}, 1)
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
			if (c.u == m.u) != !m.own {
				t.Fatalf("clone shares universe = %v, want %v", c.u == m.u, !m.own)
			}
			if !bytes.Equal(c.Encode(), m.Encode()) {
				t.Fatalf("clone encodes %q, want %q", c.Encode(), m.Encode())
			}
		}
	}
}
