package uvm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"uvllm/internal/memo"
	"uvllm/internal/refmodel"
	"uvllm/internal/sim"
)

// Stimulus is a materialized vector stream in row form. Vector i is a
// row of values aligned with Ports — the sim.Harness and sim.Batch row
// layout — unless the sequence produced a vector that does not fit that
// layout (an input missing, the clock key, an internal-signal key): such
// a vector keeps its map, and a run applies it through Harness.Cycle.
// Being plain data, a Stimulus is also what the golden-trace memo
// content-addresses, by a digest it computes once. It is read-only once
// materialized, and TraceMemo.Materialize hands one value to every
// caller of the same random sequence.
type Stimulus struct {
	// Ports is the row layout. Names must be distinct.
	Ports []sim.PortInfo

	rows []uint64            // Len() rows of len(Ports) values, row-major; zero for map vectors
	maps []map[string]uint64 // nil until a vector misses the layout; then per vector, nil = row
	n    int

	sumOnce sync.Once
	sum     [sha256.Size]byte // the content digest, once sumOnce has run
}

// rngPool recycles Materialize's generators: a math/rand source is about
// 5 KB, and Seed restarts exactly the stream rand.NewSource(seed) yields.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Materialize expands a Sequence into its concrete stimulus, laid out as
// rows over ports, using the deterministic RNG the environment would
// drive it with: rand.New(rand.NewSource(seed)), drawn from a pool and
// re-seeded. A DirectedSequence never draws, so it gets no RNG. A
// RandomSequence whose keys are exactly the layout's names fills the
// rows straight from its RNG draws — the same draws in the same order as
// Next, with no map per vector. The sequence reads as exhausted
// afterwards. TraceMemo.Materialize is the memoized form for a fresh
// RandomSequence.
func Materialize(seq Sequence, seed int64, ports []sim.PortInfo) *Stimulus {
	var rng *rand.Rand
	if _, directed := seq.(*DirectedSequence); !directed {
		rng = rngPool.Get().(*rand.Rand)
		rng.Seed(seed)
		defer rngPool.Put(rng)
	}
	st := &Stimulus{Ports: ports, rows: make([]uint64, 0, seq.Len()*len(ports))}
	col := make(map[string]int, len(ports))
	for j, p := range ports {
		col[p.Name] = j
	}
	if rs, ok := seq.(*RandomSequence); ok && rs.fillRows(rng, st, col) {
		return st
	}
	for {
		in, ok := seq.Next(rng)
		if !ok {
			return st
		}
		st.add(in, col)
	}
}

// add appends one map vector: as a row when its keys are exactly the
// layout's names, else as a map.
func (s *Stimulus) add(in map[string]uint64, col map[string]int) {
	start := len(s.rows)
	s.rows = append(s.rows, make([]uint64, len(s.Ports))...)
	fits := len(in) == len(col)
	if fits {
		for name, v := range in {
			j, ok := col[name]
			if !ok {
				fits = false
				break
			}
			s.rows[start+j] = v
		}
	}
	switch {
	case !fits:
		clear(s.rows[start:])
		if s.maps == nil {
			s.maps = make([]map[string]uint64, s.n)
		}
		s.maps = append(s.maps, in)
	case s.maps != nil:
		s.maps = append(s.maps, nil)
	}
	s.n++
}

// Len returns the number of vectors.
func (s *Stimulus) Len() int { return s.n }

// Row returns vector i as a row aligned with Ports, or nil when the
// vector does not fit the layout and must be applied as a map. The row
// aliases the stimulus: treat it as read-only.
func (s *Stimulus) Row(i int) []uint64 {
	if s.mapAt(i) != nil {
		return nil
	}
	w := len(s.Ports)
	return s.rows[i*w : (i+1)*w : (i+1)*w]
}

// mapAt returns vector i's map when it does not fit the layout, else nil.
func (s *Stimulus) mapAt(i int) map[string]uint64 {
	if s.maps == nil {
		return nil
	}
	return s.maps[i]
}

// vectorInto returns vector i as a map: the sequence's own map for a
// vector off the layout, else scratch filled from the row. Scratch only
// ever holds layout names, so filling overwrites every key it has.
func (s *Stimulus) vectorInto(i int, scratch map[string]uint64) map[string]uint64 {
	if m := s.mapAt(i); m != nil {
		return m
	}
	row := s.Row(i)
	for j, p := range s.Ports {
		scratch[p.Name] = row[j]
	}
	return scratch
}

// digest returns the stimulus's content hash, computing it on first use:
// sha256 over the layout's names, hashed once and sorted, then each row's
// values in that order, so it does not depend on port declaration order.
// A map vector hashes its sorted (name, value) pairs under its own
// marker.
func (s *Stimulus) digest() [sha256.Size]byte {
	s.sumOnce.Do(func() { s.sum = s.hash() })
	return s.sum
}

// hash computes the digest.
func (s *Stimulus) hash() [sha256.Size]byte {
	h := sha256.New()
	perm := make([]int, len(s.Ports))
	for j := range perm {
		perm[j] = j
	}
	sort.Slice(perm, func(a, b int) bool { return s.Ports[perm[a]].Name < s.Ports[perm[b]].Name })
	buf := make([]byte, 0, 4096)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(perm)))
	for _, j := range perm {
		buf = append(append(buf, s.Ports[j].Name...), 0)
	}
	var names []string
	for i := 0; i < s.n; i++ {
		if row := s.Row(i); row != nil {
			buf = append(buf, 0xfe)
			for _, j := range perm {
				buf = binary.LittleEndian.AppendUint64(buf, row[j])
			}
		} else {
			in := s.maps[i]
			names = names[:0]
			for n := range in {
				names = append(names, n)
			}
			sort.Strings(names)
			buf = binary.LittleEndian.AppendUint32(append(buf, 0xff), uint32(len(names)))
			for _, n := range names {
				buf = binary.LittleEndian.AppendUint64(append(append(buf, n...), 0), in[n])
			}
		}
		if len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// Trace is a golden reference trace in row form: row i holds the
// reference model's outputs for stimulus vector i, one value per name of
// Names, which is sorted. The scoreboard compares in that order, so a
// cycle's mismatches are always recorded and logged in sorted name order.
type Trace struct {
	names []string
	rows  []uint64
	n     int
}

// Names returns the reference model's output names, sorted.
func (t *Trace) Names() []string { return t.names }

// Len returns the number of rows.
func (t *Trace) Len() int { return t.n }

// Row returns row i, aligned with Names.
func (t *Trace) Row(i int) []uint64 {
	w := len(t.names)
	return t.rows[i*w : (i+1)*w : (i+1)*w]
}

// Columns binds the trace to a DUT's output row layout (outputs in
// declaration order, as sim.Harness.OutputRow and sim.Batch.OutputRow
// fill it): entry j is the position of Names()[j] among outputs, or -1
// when the DUT has no such output, which then reads as 0.
func (t *Trace) Columns(outputs []sim.PortInfo) []int {
	cols := make([]int, len(t.names))
	for j, name := range t.names {
		cols[j] = -1
		for k, p := range outputs {
			if p.Name == name {
				cols[j] = k
				break
			}
		}
	}
	return cols
}

// computeTrace steps model over every vector of stim, resetting it first
// when reset is set. A model must return the same output names on every
// step; the first step fixes them.
func computeTrace(model refmodel.Model, reset bool, stim *Stimulus) (*Trace, error) {
	if reset {
		model.Reset()
	}
	t := &Trace{n: stim.Len()}
	scratch := make(map[string]uint64, len(stim.Ports))
	for i := 0; i < stim.Len(); i++ {
		out := model.Step(stim.vectorInto(i, scratch))
		if i == 0 {
			for name := range out {
				t.names = append(t.names, name)
			}
			sort.Strings(t.names)
			t.rows = make([]uint64, 0, stim.Len()*len(t.names))
		}
		if len(out) != len(t.names) {
			return nil, fmt.Errorf("reference model step %d returned %d outputs, step 0 returned %d", i, len(out), len(t.names))
		}
		for _, name := range t.names {
			v, ok := out[name]
			if !ok {
				return nil, fmt.Errorf("reference model step %d has no output %q", i, name)
			}
			t.rows = append(t.rows, v)
		}
	}
	return t, nil
}

// TraceMemo memoizes golden reference traces: the expected output rows a
// reference model produces for one concrete stimulus stream. The
// evaluation pipeline replays identical streams constantly — every repair
// iteration of a job, every baseline's re-check, every ExpertPass of the
// ~12 benchmark instances that share a module — and the reference answer
// depends only on (model, reset phase, stimulus), so it is computed once
// and shared. Keys are (model name, reset flag, the stimulus's sha256
// content digest), making a hit impossible unless the stimulus is
// bit-identical; a Stimulus hashes itself once, however many lookups it
// serves. Each trace is stored once, in row form.
//
// Next to the traces it keeps the random stimulus that feeds them (see
// Materialize): a seeded stream depends only on the sequence, the seed
// and the row layout, so the replays above draw and hash it once too.
//
// The memo is safe for concurrent use; computation is single-flight and
// the stored traces and stimuli are treated as immutable by all readers.
type TraceMemo struct {
	m     *memo.M[traceKey, *Trace]
	stims *memo.M[stimKey, *Stimulus]
}

// traceKey is a golden trace's identity.
type traceKey struct {
	refName string
	reset   bool
	stim    [sha256.Size]byte
}

// stimKey is a fresh RandomSequence's materialized identity: the seed,
// every field the sequence draws by, and the row layout. shape holds the
// sequence's ports, then the layout's, each list length-prefixed and
// each port a length-prefixed name and its width.
type stimKey struct {
	seed          int64
	n, resetEvery int
	resetName     string
	shape         string
}

const (
	// traceMemoLimit bounds the traces one memo holds.
	traceMemoLimit = 4096
	// stimMemoLimit bounds the random stimuli one memo holds. A module's
	// replays (a job's repair iterations, a screen's faults) run
	// together, so a few modules' worth suffices.
	stimMemoLimit = 64
)

// NewTraceMemo returns an empty memo holding at most traceMemoLimit
// traces and stimMemoLimit random stimuli.
func NewTraceMemo() *TraceMemo {
	return &TraceMemo{
		m:     memo.New[traceKey, *Trace](traceMemoLimit),
		stims: memo.New[stimKey, *Stimulus](stimMemoLimit),
	}
}

// Materialize is the package-level Materialize, memoized for a fresh
// *RandomSequence (one that has emitted nothing): every call with the
// same seed, sequence fields and row layout returns the one read-only
// Stimulus the first call drew, and leaves seq reading as exhausted, as
// Materialize does. Any other sequence, or a nil memo, materializes
// directly.
func (tm *TraceMemo) Materialize(seq Sequence, seed int64, ports []sim.PortInfo) *Stimulus {
	rs, ok := seq.(*RandomSequence)
	if tm == nil || !ok || rs.emitted != 0 {
		return Materialize(seq, seed, ports)
	}
	st, _ := tm.stims.Do(rs.key(seed, ports), func() (*Stimulus, error) {
		return Materialize(rs, seed, slices.Clone(ports)), nil
	})
	rs.emitted = max(rs.N, 0) // a hit leaves it as the miss's Materialize does
	return st
}

var sharedMemo = NewTraceMemo()

// SharedTraceMemo returns the process-wide golden-trace memo used by the
// evaluation harness and the CLIs.
func SharedTraceMemo() *TraceMemo { return sharedMemo }

// Expected returns the reference model's output trace for stim,
// computing and memoizing it on first use. reset mirrors the UVM
// environment's reset phase (the model is Reset before stepping when the
// DUT has a reset). The returned Trace is a fresh copy owned by the
// caller: writing through its rows cannot poison the memoized trace for
// later hits, and concurrent batch lanes can each take and edit their own
// view of one golden trace.
func (tm *TraceMemo) Expected(refName string, reset bool, stim *Stimulus) (*Trace, error) {
	t, err := tm.shared(refName, reset, stim)
	if err != nil {
		return nil, err
	}
	return &Trace{
		names: append([]string(nil), t.names...),
		rows:  append([]uint64(nil), t.rows...),
		n:     t.n,
	}, nil
}

// shared returns the canonical memoized trace without copying. Env.Run
// scores one comparison per cycle against it and MUST treat it as
// frozen; the exported Expected wraps it in a defensive copy.
func (tm *TraceMemo) shared(refName string, reset bool, stim *Stimulus) (*Trace, error) {
	return tm.m.Do(traceKey{refName, reset, stim.digest()}, func() (*Trace, error) {
		model, err := refmodel.New(refName)
		if err != nil {
			return nil, err
		}
		return computeTrace(model, reset, stim)
	})
}

// TraceMemoStats is a point-in-time counter snapshot.
type TraceMemoStats = memo.Stats

// Stats returns the memo counters.
func (tm *TraceMemo) Stats() TraceMemoStats { return tm.m.Stats() }
