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

// Stimulus is a materialized vector stream in row form: vector i is a
// row of values aligned with Ports — the sim.Harness and sim.Batch row
// layout. Being plain data, a Stimulus is also what the golden-trace
// memo content-addresses, by a digest it computes once. It is read-only
// once materialized, and TraceMemo.Materialize hands one value to every
// caller of the same random sequence.
type Stimulus struct {
	// Ports is the row layout. Names must be distinct.
	Ports []sim.PortInfo

	rows []uint64 // Len() rows of len(Ports) values, row-major
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
// Next, with no map per vector. Every vector's keys must be exactly the
// layout's names: the first vector that misses an input or sets any
// other key (the clock, an internal signal) is an error naming the
// vector and the key. The sequence reads as exhausted afterwards, or
// stops at the failing vector. TraceMemo.Materialize is the memoized
// form for a fresh RandomSequence.
func Materialize(seq Sequence, seed int64, ports []sim.PortInfo) (*Stimulus, error) {
	var rng *rand.Rand
	if _, directed := seq.(*DirectedSequence); !directed {
		rng = rngPool.Get().(*rand.Rand)
		rng.Seed(seed)
		defer rngPool.Put(rng)
	}
	st := &Stimulus{Ports: ports, rows: make([]uint64, 0, seq.Len()*len(ports))}
	if rs, ok := seq.(*RandomSequence); ok && rs.fillRows(rng, st) {
		return st, nil
	}
	for {
		in, ok := seq.Next(rng)
		if !ok {
			return st, nil
		}
		if err := st.add(in); err != nil {
			return nil, err
		}
	}
}

// add appends one map vector as a row, or reports the first key by
// which it misses the layout: a layout input it lacks, in layout order,
// else the least key outside the layout.
func (s *Stimulus) add(in map[string]uint64) error {
	for _, p := range s.Ports {
		v, ok := in[p.Name]
		if !ok {
			return fmt.Errorf("uvm: vector %d has no value for input %q", s.n, p.Name)
		}
		s.rows = append(s.rows, v)
	}
	if len(in) != len(s.Ports) {
		var extra []string
		for name := range in {
			if !slices.ContainsFunc(s.Ports, func(p sim.PortInfo) bool { return p.Name == name }) {
				extra = append(extra, name)
			}
		}
		return fmt.Errorf("uvm: vector %d sets %q, which is not a row-layout input", s.n, slices.Min(extra))
	}
	s.n++
	return nil
}

// Len returns the number of vectors.
func (s *Stimulus) Len() int { return s.n }

// Row returns vector i as a row aligned with Ports. The row aliases the
// stimulus: treat it as read-only.
func (s *Stimulus) Row(i int) []uint64 {
	w := len(s.Ports)
	return s.rows[i*w : (i+1)*w : (i+1)*w]
}

// vectorInto returns vector i as a map, scratch filled from the row.
// Scratch only ever holds layout names, so filling overwrites every key
// it has.
func (s *Stimulus) vectorInto(i int, scratch map[string]uint64) map[string]uint64 {
	row := s.Row(i)
	for j, p := range s.Ports {
		scratch[p.Name] = row[j]
	}
	return scratch
}

// digest returns the stimulus's content hash, computing it on first use:
// sha256 over the layout's names, hashed once and sorted, then each row's
// values in that order, so it does not depend on port declaration order.
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
	for i := 0; i < s.n; i++ {
		row := s.Row(i)
		buf = append(buf, 0xfe)
		for _, j := range perm {
			buf = binary.LittleEndian.AppendUint64(buf, row[j])
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
// A Trace hands out no writable view of its data, so the memo can give
// every caller the one memoized value.
type Trace struct {
	names []string
	rows  []uint64
	n     int
}

// Names returns a copy of the reference model's output names, sorted.
func (t *Trace) Names() []string { return slices.Clone(t.names) }

// Len returns the number of rows.
func (t *Trace) Len() int { return t.n }

// row returns row i, aligned with names. It aliases the trace.
func (t *Trace) row(i int) []uint64 {
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
// Stimulus the first call drew, or its error, and leaves seq reading as
// exhausted. Any other sequence, or a nil memo, materializes directly.
func (tm *TraceMemo) Materialize(seq Sequence, seed int64, ports []sim.PortInfo) (*Stimulus, error) {
	rs, ok := seq.(*RandomSequence)
	if tm == nil || !ok || rs.emitted != 0 {
		return Materialize(seq, seed, ports)
	}
	st, err := tm.stims.Do(rs.key(seed, ports), func() (*Stimulus, error) {
		return Materialize(rs, seed, slices.Clone(ports))
	})
	rs.emitted = max(rs.N, 0) // a hit leaves it as the miss's Materialize does
	return st, err
}

var sharedMemo = NewTraceMemo()

// SharedTraceMemo returns the process-wide golden-trace memo used by the
// evaluation harness and the CLIs.
func SharedTraceMemo() *TraceMemo { return sharedMemo }

// Expected returns the reference model's output trace for stim,
// computing and memoizing it on first use. reset mirrors the UVM
// environment's reset phase (the model is Reset before stepping when the
// DUT has a reset). Every caller gets the one memoized Trace: it hands
// out no writable view, so no caller can poison a later hit.
func (tm *TraceMemo) Expected(refName string, reset bool, stim *Stimulus) (*Trace, error) {
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
