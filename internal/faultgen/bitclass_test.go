package faultgen

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/formal"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

// TestClassifyBitParallelDetects: a simulation-observable functional
// mutant must be caught by 64 random stimulus lanes, with a plausible
// witness location.
func TestClassifyBitParallelDetects(t *testing.T) {
	f := functionalFault(t)
	v, err := ClassifyBitParallel(f, 64, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Supported {
		t.Fatalf("observable fault %s outside the bit-parallel subset", f.ID)
	}
	if !v.Detected {
		t.Fatalf("observable fault %s escaped 64 random lanes", f.ID)
	}
	if v.Lane < 0 || v.Lane >= 64 || v.Cycle < 0 || v.Cycle >= 300 || v.Signal == "" {
		t.Fatalf("implausible witness: lane=%d cycle=%d signal=%q", v.Lane, v.Cycle, v.Signal)
	}
	if v.DetectedLanes < 1 || v.DetectedLanes > 64 {
		t.Fatalf("bad detected-lane count %d", v.DetectedLanes)
	}
	v2, err := ClassifyBitParallel(f, 64, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != v2 {
		t.Fatalf("classifier is not deterministic: %+v vs %+v", v, v2)
	}
}

// TestClassifyBitParallelGoldenUndetected: a design can never diverge
// from itself — every golden-vs-golden pair must classify clean, and
// every dataset module must be inside the subset.
func TestClassifyBitParallelGoldenUndetected(t *testing.T) {
	for _, m := range dataset.All() {
		v, err := ClassifyBitParallelSource(m.Source, m.Source, m.Top, m.Clock, 32, 60, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !v.Supported {
			t.Fatalf("%s left the bit-parallel subset", m.Name)
		}
		if v.Detected {
			t.Fatalf("%s diverged from itself at lane %d cycle %d signal %s",
				m.Name, v.Lane, v.Cycle, v.Signal)
		}
	}
}

// TestClassifyBitParallelSharing pins the point of the shared graph: a
// golden-vs-golden pair over shared input variables must strash-collapse
// to strictly fewer gates than two standalone circuits. (It does not
// collapse all the way to one circuit: each side keeps its own
// previous-state variables, so only the input-only cones merge.)
func TestClassifyBitParallelSharing(t *testing.T) {
	m := dataset.ByName("mux4")
	if m == nil {
		t.Fatal("mux4 missing from the dataset")
	}
	p, err := sim.SharedCache().Compile(m.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := formal.NewCircuit(p, m.Clock, formal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	soloOps := psim.NewMachine(solo.G).Ops()
	v, err := ClassifyBitParallelSource(m.Source, m.Source, m.Top, m.Clock, 64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Supported {
		t.Fatal("mux4 pair unsupported")
	}
	if v.GateOps >= 2*soloOps {
		t.Fatalf("golden-vs-golden pair shared nothing: pair %d gates, solo %d", v.GateOps, soloOps)
	}
	t.Logf("shared pair: %d gates vs %d solo (2x = %d)", v.GateOps, soloOps, 2*soloOps)
}

// TestClassifyBitParallelAgreesWithBounded: a concrete divergence
// witness at cycle c is a satisfying assignment of the depth-(c+1)
// miter, so bounded equivalence must refute the same fault, no later
// than the witness.
func TestClassifyBitParallelAgreesWithBounded(t *testing.T) {
	f := functionalFault(t)
	v, err := ClassifyBitParallel(f, 64, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Detected || v.Cycle >= formal.DefaultBMCDepth {
		t.Skipf("no witness within BMC depth (detected=%v cycle=%d)", v.Detected, v.Cycle)
	}
	m := f.Meta()
	golden, err := sim.SharedCache().Compile(f.Golden, m.Top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	mutant, err := sim.SharedCache().Compile(f.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	res, err := formal.BMCEquivOpts(golden, mutant, m.Clock, formal.DefaultBMCDepth, formal.Options{MaxConflicts: 20000})
	if errors.Is(err, formal.ErrBudget) || errors.Is(err, formal.ErrUnsupported) {
		t.Skipf("bounded check cannot decide this fault: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatalf("bit-parallel witness at cycle %d but the pair is equivalent to depth %d", v.Cycle, res.Depth)
	}
	if res.Cex == nil || res.Cex.Cycle > v.Cycle {
		t.Fatalf("bounded counterexample at cycle %v, bit-parallel witnessed cycle %d", res.Cex, v.Cycle)
	}
}

// TestClassifyBitParallelPinned pins every functional benchmark fault's
// screen verdict, error included, to digests recorded before the screen
// learned to stop once every lane has diverged: the stop may save
// cycles but never change a verdict. The second run's 7 lanes cover an
// active mask below a full word. The interleaved pass makes both runs'
// calls again in one sequence that alternates modules and lane counts,
// so consecutive calls change the memoized columns' key, and must reach
// the same digests.
func TestClassifyBitParallelPinned(t *testing.T) {
	type run struct {
		lanes, cycles int
		seed          int64
		want          string
	}
	runs := []run{
		{64, 500, 1, "8355c1a96b663a9a39a3d0c1"},
		{7, 500, 3, "4c431835ccf6ff29fd2d9977"},
	}
	var faults []*Fault
	for _, f := range Benchmark() {
		if !f.Class.IsSyntax() {
			faults = append(faults, f)
		}
	}
	classify := func(f *Fault, r run) string {
		v, err := ClassifyBitParallel(f, r.lanes, r.cycles, r.seed)
		return fmt.Sprintf("%s|%+v|%v\n", f.ID, v, err)
	}
	check := func(pass string, r run, lines []string) {
		h := sha256.New()
		for _, l := range lines {
			h.Write([]byte(l))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != r.want {
			t.Errorf("%s lanes=%d cycles=%d seed=%d: %d verdicts digest %s, want %s",
				pass, r.lanes, r.cycles, r.seed, len(lines), got, r.want)
		}
	}
	for _, r := range runs {
		colTable.Lock()
		misses := colTable.misses
		colTable.Unlock()
		lines := make([]string, len(faults))
		for i, f := range faults {
			lines[i] = classify(f, r)
		}
		check("in order:", r, lines)
		// The faults of a module are listed together and share one entry.
		colTable.Lock()
		if n := colTable.misses - misses; n > int64(len(dataset.All())) {
			t.Errorf("lanes=%d: %d column misses over %d faults of %d modules", r.lanes, n, len(faults), len(dataset.All()))
		}
		colTable.Unlock()
	}

	// Faults i and half+i sit in different modules; each step runs both
	// lane counts, flipping which goes first.
	lines := [2][]string{make([]string, len(faults)), make([]string, len(faults))}
	half := (len(faults) + 1) / 2
	step := 0
	for i := 0; i < half; i++ {
		for _, fi := range []int{i, half + i} {
			if fi >= len(faults) {
				continue
			}
			for k := range runs {
				r := (step + k) % len(runs)
				lines[r][fi] = classify(faults[fi], runs[r])
			}
			step++
		}
	}
	for r := range runs {
		check("interleaved:", runs[r], lines[r])
	}
}

// TestClassifyColumnsShared: calls running at once on one key read and
// grow one entry, and calls on another key replace it under them; each
// still returns its sequential verdict.
func TestClassifyColumnsShared(t *testing.T) {
	var faults []*Fault
	for _, f := range Benchmark() {
		if (f.Module == "fifo_sync" || f.Module == "alu") && !f.Class.IsSyntax() {
			faults = append(faults, f)
		}
	}
	want := make([]BitVerdict, len(faults))
	for i, f := range faults {
		want[i], _ = ClassifyBitParallel(f, 64, 300, 5)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range faults {
				i := (w + n) % len(faults)
				got, err := ClassifyBitParallel(faults[i], 64, 300, 5)
				if err != nil || got != want[i] {
					t.Errorf("%s concurrently: %+v, %v; sequentially %+v", faults[i].ID, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClassifyColumnsBounded: the column table holds one entry, which
// never covers more than maxMemoCycles cycles; a longer call draws
// private columns and leaves the entry in place; and an entry's
// generators go back to the pool once it is fully drawn, or once it is
// replaced and its last call has finished.
func TestClassifyColumnsBounded(t *testing.T) {
	m := dataset.ByName("alu")
	classify := func(cycles int, seed int64) {
		t.Helper()
		// Golden against itself never diverges, so every cycle runs.
		v, err := ClassifyBitParallelSource(m.Source, m.Source, m.Top, m.Clock, 64, cycles, seed)
		if err != nil || !v.Supported || v.Detected {
			t.Fatalf("alu vs itself, %d cycles: %+v, %v", cycles, v, err)
		}
	}
	current := func() *laneColumns {
		colTable.Lock()
		defer colTable.Unlock()
		return colTable.cur
	}
	classify(maxMemoCycles, 11)
	full := current()
	if full == nil || full.seed != 11 {
		t.Fatalf("a %d-cycle call did not publish its columns", maxMemoCycles)
	}
	full.mu.Lock()
	n, rngs, refs := int(full.published.Load()), full.rngs, full.refs
	full.mu.Unlock()
	if n*chunkCycles != maxMemoCycles || rngs != nil || refs != 1 {
		t.Fatalf("full entry: %d cycles drawn, %d generators kept, %d refs; want %d, 0, 1 (the slot)",
			n*chunkCycles, len(rngs), refs, maxMemoCycles)
	}

	colTable.Lock()
	bypassed := colTable.bypassed
	colTable.Unlock()
	classify(maxMemoCycles+1, 12)
	colTable.Lock()
	if colTable.cur != full || colTable.bypassed != bypassed+1 {
		t.Errorf("a call past the cap replaced the entry or was not counted as bypassed")
	}
	colTable.Unlock()

	classify(40, 13)
	part := current()
	if part == full {
		t.Fatal("a new key kept the old entry")
	}
	full.mu.Lock()
	if full.refs != 0 || full.rngs != nil {
		t.Errorf("replaced entry: %d refs, %d generators; want none", full.refs, len(full.rngs))
	}
	full.mu.Unlock()
	part.mu.Lock()
	if got := int(part.published.Load()) * chunkCycles; got < 40 || got >= 40+chunkCycles || len(part.rngs) != 64 {
		t.Errorf("40-cycle entry: %d cycles drawn, %d generators; want the chunks covering 40 and 64", got, len(part.rngs))
	}
	part.mu.Unlock()
}

// TestClassifyBitParallelSettledIsFinal: once all 64 lanes have
// diverged the verdict is final, so a budget 20x longer returns the
// same BitVerdict.
func TestClassifyBitParallelSettledIsFinal(t *testing.T) {
	for _, f := range Benchmark() {
		if f.Class.IsSyntax() {
			continue
		}
		short, err := ClassifyBitParallel(f, 64, 200, 1)
		if err != nil || short.DetectedLanes != 64 {
			continue
		}
		long, err := ClassifyBitParallel(f, 64, 4000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if long != short {
			t.Fatalf("%s: settled verdict moved with the budget:\n200 cycles:  %+v\n4000 cycles: %+v", f.ID, short, long)
		}
		return
	}
	t.Fatal("no functional benchmark fault diverges on all 64 lanes within 200 cycles")
}

// TestClassifyBitParallelConcurrent: the lane generators come from one
// shared pool, so classifications running at once must each still draw
// their own lanes' streams and return the verdicts of a sequential run.
func TestClassifyBitParallelConcurrent(t *testing.T) {
	var faults []*Fault
	for i, f := range Benchmark() {
		if !f.Class.IsSyntax() && i%7 == 0 {
			faults = append(faults, f)
		}
	}
	want := make([]BitVerdict, len(faults))
	for i, f := range faults {
		want[i], _ = ClassifyBitParallel(f, 64, 200, int64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range faults {
				i := (w + n) % len(faults)
				got, err := ClassifyBitParallel(faults[i], 64, 200, int64(i))
				if err != nil || got != want[i] {
					t.Errorf("%s concurrently: %+v, %v; sequentially %+v", faults[i].ID, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClassifyBitParallelBytes guards the classifier's per-call heap
// traffic on a fifo_sync fault at 64 lanes x 200 cycles. The lane
// generators come from a pool and the stimulus is bit-sliced in place;
// allocating 64 fresh math/rand sources per call read 771 KB.
func TestClassifyBitParallelBytes(t *testing.T) {
	const limit = 400 << 10
	var f *Fault
	for _, c := range Benchmark() {
		if c.Module == "fifo_sync" && !c.Class.IsSyntax() {
			f = c
			break
		}
	}
	if f == nil {
		t.Fatal("no functional fifo_sync fault in the benchmark")
	}
	classify := func() {
		if v, err := ClassifyBitParallel(f, 64, 200, 1); err != nil || !v.Supported {
			t.Fatalf("%s: %+v, %v", f.ID, v, err)
		}
	}
	classify() // warm the compile cache and the generator pool
	// The least of several calls: a collection may empty the pool.
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 8 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		classify()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if least > limit {
		t.Fatalf("ClassifyBitParallel(%s) allocates %d KB per call, want at most %d KB", f.ID, least>>10, limit>>10)
	}
	t.Logf("ClassifyBitParallel(%s): %d KB per call", f.ID, least>>10)
}
