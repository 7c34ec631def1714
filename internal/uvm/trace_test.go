package uvm

import (
	"math/rand"
	"reflect"
	"slices"
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

// materialize is Materialize for streams that fit the layout.
func materialize(t testing.TB, seq Sequence, seed int64, ports []sim.PortInfo) *Stimulus {
	t.Helper()
	st, err := Materialize(seq, seed, ports)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMaterializeDeterministic pins that materializing a sequence yields
// the identical stream a live run would draw: the row fill takes the
// same RNG draws, in the same order, as Next.
func TestMaterializeDeterministic(t *testing.T) {
	ports := aluPorts(t)
	a := materialize(t, &RandomSequence{Ports: ports, N: 50}, 11, ports)
	b := materialize(t, &RandomSequence{Ports: ports, N: 50}, 11, ports)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := materialize(t, &RandomSequence{Ports: ports, N: 50}, 12, ports)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
	seq := &RandomSequence{Ports: ports, N: 50}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < a.Len(); i++ {
		want, _ := seq.Next(rng)
		if got := a.vectorInto(i, map[string]uint64{}); !reflect.DeepEqual(got, want) {
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
					for _, c := range []struct {
						seq  Sequence
						seed int64
					}{
						{&RandomSequence{Ports: ports, N: n}, int64(s)},
						{&DirectedSequence{Vectors: want[s]}, int64(s + 1)},
					} {
						st, err := Materialize(c.seq, c.seed, ports)
						if err != nil {
							t.Error(err)
							return
						}
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
func counterStim(t *testing.T, vectors []map[string]uint64) *Stimulus {
	ports := []sim.PortInfo{{Name: "rst_n", Width: 1}, {Name: "en", Width: 1}}
	return materialize(t, &DirectedSequence{Vectors: vectors}, 0, ports)
}

// TestTraceMemoMatchesModel checks a memoized trace is exactly what a
// fresh reference model computes, and that replays hit.
func TestTraceMemoMatchesModel(t *testing.T) {
	m := dataset.ByName("counter_12bit")
	vectors := []map[string]uint64{
		{"rst_n": 1, "en": 1}, {"rst_n": 1, "en": 0}, {"rst_n": 1, "en": 1}, {"rst_n": 0, "en": 1}, {"rst_n": 1, "en": 1},
	}
	stim := counterStim(t, vectors)
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
			row[name] = got.row(i)[j]
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
// gate. Expected hands every caller the one memoized trace, so a caller
// that calls every exported method of it and overwrites every element
// of every slice they return must not change what a later identical
// lookup sees. Lane observations share golden traces, so a method that
// leaked a view of the rows would be a silent cross-lane corruption
// vector.
func TestTraceMemoMutationCannotPoison(t *testing.T) {
	m := dataset.ByName("counter_12bit")
	vectors := []map[string]uint64{
		{"rst_n": 1, "en": 1}, {"rst_n": 1, "en": 1}, {"rst_n": 1, "en": 0},
	}
	stim := counterStim(t, vectors)
	tm := NewTraceMemo()
	first, err := tm.Expected(m.Name, true, stim)
	if err != nil {
		t.Fatal(err)
	}
	pristine := &Trace{names: slices.Clone(first.names), rows: slices.Clone(first.rows), n: first.n}
	// Hostile caller: every exported method, zero arguments, every
	// returned slice element overwritten.
	tt := reflect.TypeOf(first)
	for i := 0; i < tt.NumMethod(); i++ {
		meth := tt.Method(i)
		args := []reflect.Value{reflect.ValueOf(first)}
		for a := 1; a < meth.Type.NumIn(); a++ {
			args = append(args, reflect.Zero(meth.Type.In(a)))
		}
		for _, out := range meth.Func.Call(args) {
			if out.Kind() != reflect.Slice {
				continue
			}
			for e := 0; e < out.Len(); e++ {
				switch el := out.Index(e); el.Kind() {
				case reflect.String:
					el.SetString("injected")
				case reflect.Int, reflect.Int64:
					el.SetInt(-7)
				case reflect.Uint64:
					el.SetUint(^uint64(0))
				}
			}
		}
	}
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
}

// TestRunWithMemoIsByteIdentical runs the same environment configuration
// with and without the golden-trace memo (and with a shared compile
// cache) and requires identical pass rates, scoreboards and logs — the
// memo, the stimulus it memoizes included, is an amortization, never a
// semantic change.
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
		if st := memo.stims.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("%s: stimulus memo %+v, want the second run's one hit", name, st)
		}
	}
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 6 {
		t.Errorf("each DUT should compile once and serve its other two runs from the cache: %+v", st)
	}
}

// TestStimulusMemoKeys: TraceMemo.Materialize returns one *Stimulus per
// (seed, N, ResetName, ResetEvery, sequence ports, row layout), holding
// Materialize's stream, and a different one when any of them differs.
// The sequence reads as exhausted afterwards, hit or miss; a sequence
// that has already emitted, and a nil memo, materialize directly.
func TestStimulusMemoKeys(t *testing.T) {
	ports := aluPorts(t)
	narrow := append([]sim.PortInfo(nil), ports...)
	narrow[0].Width--
	reversed := append([]sim.PortInfo(nil), ports...)
	slices.Reverse(reversed)
	seq := func() *RandomSequence { return &RandomSequence{Ports: ports, N: 30} }
	tm := NewTraceMemo()
	get := func(s *RandomSequence, seed int64, layout []sim.PortInfo) *Stimulus {
		t.Helper()
		st, err := tm.Materialize(s, seed, layout)
		if err != nil {
			t.Fatal(err)
		}
		if s.emitted != s.N {
			t.Fatalf("sequence emitted %d of %d after the memo's Materialize", s.emitted, s.N)
		}
		want := materialize(t, &RandomSequence{Ports: s.Ports, N: s.N, ResetName: s.ResetName, ResetEvery: s.ResetEvery}, seed, layout)
		if st.Len() != want.Len() || !slices.Equal(st.rows, want.rows) || !slices.Equal(st.Ports, want.Ports) {
			t.Fatalf("memoized stimulus differs from Materialize's")
		}
		return st
	}
	base := get(seq(), 1, ports)
	if again := get(seq(), 1, ports); again != base {
		t.Fatal("the same key materialized twice")
	}
	for name, st := range map[string]*Stimulus{
		"seed":          get(seq(), 2, ports),
		"N":             get(&RandomSequence{Ports: ports, N: 31}, 1, ports),
		"ResetName":     get(&RandomSequence{Ports: ports, N: 30, ResetName: "op"}, 1, ports),
		"ResetEvery":    get(&RandomSequence{Ports: ports, N: 30, ResetEvery: 7}, 1, ports),
		"sequence port": get(&RandomSequence{Ports: narrow, N: 30}, 1, ports),
		"row layout":    get(seq(), 1, reversed),
	} {
		if st == base {
			t.Errorf("a different %s shared the stimulus", name)
		}
	}
	if st := tm.stims.Stats(); st.Hits != 1 || st.Misses != 7 {
		t.Errorf("stimulus memo %+v, want 1 hit and 7 misses", st)
	}

	used := seq()
	used.emitted = 1
	if st, _ := tm.Materialize(used, 1, ports); st == base || st.Len() != 29 {
		t.Errorf("a sequence past its first vector hit the memo or lost its remaining vectors (%d)", st.Len())
	}
	var none *TraceMemo
	if st, _ := none.Materialize(seq(), 1, ports); st == base || !slices.Equal(st.rows, base.rows) {
		t.Error("a nil memo did not materialize directly")
	}
}

// TestTraceMemoBounded: however many distinct stimuli and traces a memo
// sees, it holds at most stimMemoLimit stimuli and traceMemoLimit traces.
func TestTraceMemoBounded(t *testing.T) {
	m := dataset.ByName("alu")
	ports := aluPorts(t)
	tm := NewTraceMemo()
	for seed := int64(0); seed < 3*stimMemoLimit; seed++ {
		st, err := tm.Materialize(&RandomSequence{Ports: ports, N: 4}, seed, ports)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Expected(m.Name, false, st); err != nil {
			t.Fatal(err)
		}
		if n := tm.stims.Stats().Entries; n > stimMemoLimit {
			t.Fatalf("after %d stimuli the memo holds %d, limit %d", seed+1, n, stimMemoLimit)
		}
		if n := tm.Stats().Entries; n > traceMemoLimit {
			t.Fatalf("after %d traces the memo holds %d, limit %d", seed+1, n, traceMemoLimit)
		}
	}
	if st := tm.stims.Stats(); st.Evictions == 0 || st.Misses != 3*stimMemoLimit {
		t.Errorf("stimulus memo %+v: want %d misses and some evictions", st, 3*stimMemoLimit)
	}
}

// TestStimulusMemoConcurrent: callers racing on the same keys share one
// stimulus per key, and its digest, computed once, finds one trace.
func TestStimulusMemoConcurrent(t *testing.T) {
	m := dataset.ByName("alu")
	ports := aluPorts(t)
	tm := NewTraceMemo()
	const seeds = 8
	var stims [4][seeds]*Stimulus
	var traces [4][seeds]*Trace
	var wg sync.WaitGroup
	for w := range stims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < seeds; n++ {
				s := (w + n) % seeds
				st, err := tm.Materialize(&RandomSequence{Ports: ports, N: 40}, int64(s), ports)
				if err != nil {
					t.Error(err)
					return
				}
				stims[w][s] = st
				tr, err := tm.Expected(m.Name, false, st)
				if err != nil {
					t.Error(err)
					return
				}
				traces[w][s] = tr
			}
		}()
	}
	wg.Wait()
	for w := range stims {
		for s := 0; s < seeds; s++ {
			if stims[w][s] != stims[0][s] || traces[w][s] != traces[0][s] {
				t.Fatalf("seed %d: caller %d got its own stimulus or trace", s, w)
			}
		}
	}
	if st := tm.Stats(); st.Misses != seeds {
		t.Errorf("trace memo %+v, want %d misses", st, seeds)
	}
}
