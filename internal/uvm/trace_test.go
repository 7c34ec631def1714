package uvm

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/refmodel"
	"uvllm/internal/sim"
)

func aluPorts(t *testing.T) []sim.PortInfo {
	t.Helper()
	m := dataset.ByName("alu")
	p, err := sim.CompileSource(m.Source, m.Top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	return p.Design().Inputs()
}

// TestMaterializeDeterministic pins that materializing a sequence yields
// the identical stream a live run would draw: the row fill takes the
// same RNG draws, in the same order, as Next.
func TestMaterializeDeterministic(t *testing.T) {
	ports := aluPorts(t)
	a := Materialize(&RandomSequence{Ports: ports, N: 50}, 11, ports)
	b := Materialize(&RandomSequence{Ports: ports, N: 50}, 11, ports)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := Materialize(&RandomSequence{Ports: ports, N: 50}, 12, ports)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
	seq := &RandomSequence{Ports: ports, N: 50}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < a.Len(); i++ {
		want, _ := seq.Next(rng)
		if got := a.vectorInto(i, map[string]uint64{}); a.Row(i) == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("vector %d: rows %v, Next %v", i, got, want)
		}
	}
}

// TestMaterializePooledRNG: Materialize's pooled generators leak no
// state between calls. Concurrent calls over many seeds, random and
// directed sequences interleaved, each yield the stream a fresh
// rand.New(rand.NewSource(seed)) draws.
func TestMaterializePooledRNG(t *testing.T) {
	ports := aluPorts(t)
	const seeds, n = 64, 9
	want := make([][]map[string]uint64, seeds)
	for s := range want {
		seq := &RandomSequence{Ports: ports, N: n}
		rng := rand.New(rand.NewSource(int64(s)))
		for i := 0; i < n; i++ {
			v, _ := seq.Next(rng)
			want[s] = append(want[s], v)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				for s := (w + rep) % seeds; s < seeds; s += 3 {
					for _, st := range []*Stimulus{
						Materialize(&RandomSequence{Ports: ports, N: n}, int64(s), ports),
						Materialize(&DirectedSequence{Vectors: want[s]}, int64(s+1), ports),
					} {
						for i := 0; i < n; i++ {
							if got := st.vectorInto(i, map[string]uint64{}); !reflect.DeepEqual(got, want[s][i]) {
								t.Errorf("seed %d vector %d = %v, want %v", s, i, got, want[s][i])
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// counterStim lays counter_12bit vectors out over its non-clock inputs.
func counterStim(vectors []map[string]uint64) *Stimulus {
	ports := []sim.PortInfo{{Name: "rst_n", Width: 1}, {Name: "en", Width: 1}}
	return Materialize(&DirectedSequence{Vectors: vectors}, 0, ports)
}

// TestTraceMemoMatchesModel checks a memoized trace is exactly what a
// fresh reference model computes, and that replays hit.
func TestTraceMemoMatchesModel(t *testing.T) {
	m := dataset.ByName("counter_12bit")
	vectors := []map[string]uint64{
		{"rst_n": 1, "en": 1}, {"rst_n": 1, "en": 0}, {"rst_n": 1, "en": 1}, {"rst_n": 0, "en": 1}, {"rst_n": 1, "en": 1},
	}
	stim := counterStim(vectors)
	tm := NewTraceMemo()
	got, err := tm.Expected(m.Name, true, stim)
	if err != nil {
		t.Fatal(err)
	}
	model, err := refmodel.New(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	model.Reset()
	for i, in := range vectors {
		want := model.Step(in)
		row := map[string]uint64{}
		for j, name := range got.Names() {
			row[name] = got.Row(i)[j]
		}
		if !reflect.DeepEqual(row, want) {
			t.Fatalf("cycle %d: memo %v != model %v", i, row, want)
		}
	}
	if _, err := tm.Expected(m.Name, true, stim); err != nil {
		t.Fatal(err)
	}
	st := tm.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// A different reset phase is a different trace.
	if _, err := tm.Expected(m.Name, false, stim); err != nil {
		t.Fatal(err)
	}
	if st := tm.Stats(); st.Misses != 2 {
		t.Fatalf("reset flag not part of the key: %+v", st)
	}
}

// TestTraceMemoMutationCannotPoison is the memo-poisoning regression
// gate: a caller scribbling over the trace Expected returned must not
// corrupt what a later identical lookup sees. Batch lanes
// share golden traces, so a leaked reference here would be a silent
// cross-lane corruption vector.
func TestTraceMemoMutationCannotPoison(t *testing.T) {
	m := dataset.ByName("counter_12bit")
	vectors := []map[string]uint64{
		{"rst_n": 1, "en": 1}, {"rst_n": 1, "en": 1}, {"rst_n": 1, "en": 0},
	}
	stim := counterStim(vectors)
	tm := NewTraceMemo()
	first, err := tm.Expected(m.Name, true, stim)
	if err != nil {
		t.Fatal(err)
	}
	pristine := &Trace{
		names: append([]string(nil), first.names...),
		rows:  append([]uint64(nil), first.rows...),
		n:     first.n,
	}
	// Hostile caller: rewrite every cell and rename an output.
	for i := 0; i < first.Len(); i++ {
		row := first.Row(i)
		for j := range row {
			row[j] = ^uint64(0)
		}
	}
	first.Names()[0] = "injected"
	second, err := tm.Expected(m.Name, true, stim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, pristine) {
		t.Fatalf("memo hit returned a poisoned trace:\n got %v\nwant %v", second, pristine)
	}
	if st := tm.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("second fetch was not a memo hit: %+v", st)
	}
	// And the two fetches must not alias each other.
	second.Row(1)[0] = 99
	third, err := tm.Expected(m.Name, true, stim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, pristine) {
		t.Fatal("fetches alias one another")
	}
}

// TestRunWithMemoIsByteIdentical runs the same environment configuration
// with and without the golden-trace memo (and with a shared compile
// cache) and requires identical pass rates, scoreboards and logs — the
// memo is an amortization, never a semantic change.
func TestRunWithMemoIsByteIdentical(t *testing.T) {
	cache := sim.NewCache()
	for _, name := range []string{"counter_12bit", "alu", "fifo_sync"} {
		m := dataset.ByName(name)
		runOnce := func(memo *TraceMemo) (float64, string, *Scoreboard) {
			env, err := NewEnv(Config{
				Source: m.Source, Top: m.Top, Clock: m.Clock, RefName: m.Name,
				Seed: 42, Cache: cache, Memo: memo,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var ports []sim.PortInfo
			for _, p := range env.DUT.Sim.Design().Inputs() {
				if p.Name != m.Clock {
					ports = append(ports, p)
				}
			}
			reset := ""
			if m.HasReset {
				reset = "rst_n"
			}
			rate := env.Run(&RandomSequence{Ports: ports, N: 120, ResetName: reset, ResetEvery: 40})
			return rate, env.Log(), env.Score
		}
		memo := NewTraceMemo()
		rateM1, logM1, sbM1 := runOnce(memo)
		rateM2, logM2, sbM2 := runOnce(memo) // second run: memo hit path
		rateD, logD, sbD := runOnce(nil)
		if rateM1 != rateD || logM1 != logD || !reflect.DeepEqual(sbM1, sbD) {
			t.Errorf("%s: memoized run differs from direct run", name)
		}
		if rateM2 != rateD || logM2 != logD || !reflect.DeepEqual(sbM2, sbD) {
			t.Errorf("%s: memo-hit run differs from direct run", name)
		}
		if st := memo.Stats(); st.Hits == 0 {
			t.Errorf("%s: second run did not hit the memo (%+v)", name, st)
		}
	}
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 6 {
		t.Errorf("each DUT should compile once and serve its other two runs from the cache: %+v", st)
	}
}
