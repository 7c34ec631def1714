package cover

import (
	"bytes"
	"strings"
	"testing"
)

// addPoint adds n hits to point p of m's universe.
func addPoint(t *testing.T, m *Map, p Point, n int) {
	t.Helper()
	s, ok := m.u.Slot(p)
	if !ok {
		t.Fatalf("%s is not in the map's universe", p)
	}
	for i := 0; i < n; i++ {
		m.IncSlot(s)
	}
}

func TestPercentAndHit(t *testing.T) {
	if got := NewUniverse(nil).NewMap().Percent(); got != 0 {
		t.Fatalf("empty universe Percent = %v, want 0", got)
	}
	a := Point{KindStmt, "p0.s0"}
	b := Point{KindBranch, "p0.s1.then"}
	c := Point{KindToggle1, "x[0]"}
	m := NewUniverse([]Point{a, b, c}).NewMap()
	if got := m.Percent(); got != 0 {
		t.Fatalf("unhit Percent = %v, want 0", got)
	}
	addPoint(t, m, a, 2)
	addPoint(t, m, c, 1)
	if m.Hit() != 2 || m.Len() != 3 {
		t.Fatalf("Hit/Len = %d/%d, want 2/3", m.Hit(), m.Len())
	}
	if got := m.Percent(); got < 66.6 || got > 66.7 {
		t.Fatalf("Percent = %v, want ~66.67", got)
	}
	if m.Count(a) != 2 || m.Count(b) != 0 || m.Count(Point{KindState, "s=0"}) != 0 {
		t.Fatalf("Count = %d/%d/%d, want 2/0/0", m.Count(a), m.Count(b), m.Count(Point{KindState, "s=0"}))
	}
}

func TestMergeGain(t *testing.T) {
	a, b, c, d := Point{KindStmt, "a"}, Point{KindStmt, "b"}, Point{KindStmt, "c"}, Point{KindBranch, "d"}
	u := NewUniverse([]Point{a, b, c, d})
	base := u.NewMap()
	addPoint(t, base, b, 1)

	run := u.NewMap()
	addPoint(t, run, a, 2) // newly hit
	addPoint(t, run, b, 5) // already hit in base
	addPoint(t, run, d, 1) // newly hit; c stays unhit

	if g := base.Gain(run); g != 2 {
		t.Fatalf("Gain = %d, want 2 (a and d)", g)
	}
	if got := base.Merge(run); got != base {
		t.Fatal("Merge did not return its receiver")
	}
	if base.Count(a) != 2 || base.Count(b) != 6 || base.Count(c) != 0 {
		t.Fatalf("Merge counts wrong: a=%d b=%d c=%d", base.Count(a), base.Count(b), base.Count(c))
	}
	if base.Len() != 4 || base.Hit() != 3 {
		t.Fatalf("merged Len/Hit = %d/%d, want 4/3", base.Len(), base.Hit())
	}
	if g := base.Gain(run); g != 0 {
		t.Fatalf("Gain after merge = %d, want 0", g)
	}
	if base.Gain(nil) != 0 || base.Merge(nil) != base || base.Hit() != 3 {
		t.Fatal("nil other must be a no-op")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	pts := []Point{
		{KindTrans, "fsm:1->2"},
		{KindStmt, "p0.s0"},
		{KindToggle0, "x[3]"},
		{KindBranch, "p0.s1.else"},
	}
	rev := []Point{pts[3], pts[2], pts[1], pts[0]}
	// Same counts (trans=1 stmt=2 tog0=3 branch=4) over universes built
	// from the points in opposite orders.
	m1, m2 := NewUniverse(pts).NewMap(), NewUniverse(rev).NewMap()
	for i, p := range pts {
		addPoint(t, m1, p, i+1)
		addPoint(t, m2, p, i+1)
	}
	if !bytes.Equal(m1.Encode(), m2.Encode()) {
		t.Fatalf("Encode depends on the universe's input order:\n%s\nvs\n%s", m1.Encode(), m2.Encode())
	}
	enc := string(m1.Encode())
	if !strings.Contains(enc, "stmt:p0.s0=2") || !strings.Contains(enc, "trans:fsm:1->2=1") {
		t.Fatalf("Encode content wrong:\n%s", enc)
	}
	// Kind order: stmt before branch before tog0 before trans.
	if strings.Index(enc, "stmt:") > strings.Index(enc, "branch:") {
		t.Fatalf("kind order wrong:\n%s", enc)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Point{KindStmt, "a"}
	m := NewUniverse([]Point{a}).NewMap()
	addPoint(t, m, a, 1)
	c := m.Clone()
	addPoint(t, c, a, 1)
	if m.Count(a) != 1 || m.Hit() != 1 || c.Count(a) != 2 {
		t.Fatalf("Clone shares storage: original %d, clone %d", m.Count(a), c.Count(a))
	}
	if c.u != m.u {
		t.Fatal("Clone must share its universe")
	}
}

func TestReport(t *testing.T) {
	m := NewUniverse([]Point{{KindStmt, "a"}, {KindStmt, "b"}, {KindBranch, "c"}}).NewMap()
	addPoint(t, m, Point{KindStmt, "a"}, 1)
	r := m.Report(10)
	if !strings.Contains(r, "33.3%") {
		t.Fatalf("Report percent wrong:\n%s", r)
	}
	if !strings.Contains(r, "MISS stmt:b") || !strings.Contains(r, "MISS branch:c") {
		t.Fatalf("Report misses wrong:\n%s", r)
	}
	if strings.Contains(m.Report(0), "MISS") {
		t.Fatal("Report(0) must omit the miss list")
	}
	if !strings.Contains(m.Report(1), "more missed points") {
		t.Fatal("Report cap note missing")
	}
}
