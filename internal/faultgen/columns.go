package faultgen

// The bit-parallel classifier's random stimulus as a memoized value.
// Lane k of a ClassifyBitParallelSource call draws one value from
// rand.NewSource(seed+k) per post-reset cycle for each non-reset free
// input, in port order, and a cycle drives those values bit-sliced. So
// the words depend only on (seed, lanes, the widths of those inputs in
// order), and the roughly six faults of one benchmark module, which
// Benchmark() lists together, drive identical words. A one-entry table
// keeps the most recent key's columns, drawn lazily in fixed-size chunks
// that never change once published.

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"uvllm/internal/psim"
)

const (
	// chunkCycles is the number of cycles one chunk of columns holds.
	chunkCycles = 16
	// maxMemoCycles caps the cycles a shared entry covers. A call asking
	// for more draws its own columns one chunk at a time and keeps none,
	// so the table's memory does not grow with a caller's cycle count.
	maxMemoCycles = 2048
)

// laneColumns is one key's bit-sliced random columns. A shared entry
// (the table's) publishes chunk j once every cycle in it is drawn and
// never writes it again, so readers need no lock; drawing the next chunk
// takes mu. A private entry serves one call, which reads its cycles in
// order, and reuses a single chunk.
type laneColumns struct {
	seed   int64
	lanes  int
	widths []int // the non-reset free inputs' word counts, in port order
	words  int   // words per cycle: the sum of widths
	shared bool

	mu   sync.Mutex
	rngs []*rand.Rand // the lanes' generators, past every drawn cycle; nil until the first draw and once given back
	refs int          // holders: the table slot and each running call

	// chunks[j] holds cycles j*chunkCycles onward, widths back to back.
	// A shared entry has one slot per chunk up to maxMemoCycles and
	// stores chunk j before published counts it; a private one has one
	// slot, refilled whenever a read starts a chunk.
	chunks    [][]uint64
	published atomic.Int32
}

// colTable is the one-entry table of shared columns, with counts of the
// calls that replaced its entry and of those that bypassed it.
var colTable struct {
	sync.Mutex
	cur              *laneColumns
	misses, bypassed int64
}

// columnsFor returns the columns for a call of the given post-reset
// cycle count, holding a reference the caller gives back with release.
// A call within maxMemoCycles shares the table's entry when the key
// matches and otherwise replaces it; a longer call gets private columns.
func columnsFor(seed int64, lanes int, widths []int, cycles int) *laneColumns {
	if cycles > maxMemoCycles {
		colTable.Lock()
		colTable.bypassed++
		colTable.Unlock()
		return newLaneColumns(seed, lanes, widths, false)
	}
	colTable.Lock()
	defer colTable.Unlock()
	if c := colTable.cur; c != nil && c.seed == seed && c.lanes == lanes && slices.Equal(c.widths, widths) {
		c.mu.Lock()
		c.refs++
		c.mu.Unlock()
		return c
	}
	colTable.misses++
	c := newLaneColumns(seed, lanes, widths, true)
	c.refs++ // the slot's reference
	if old := colTable.cur; old != nil {
		old.release()
	}
	colTable.cur = c
	return c
}

// newLaneColumns returns an undrawn entry with one reference, the
// caller's. The generators are taken at the first draw.
func newLaneColumns(seed int64, lanes int, widths []int, shared bool) *laneColumns {
	c := &laneColumns{seed: seed, lanes: lanes, widths: slices.Clone(widths), shared: shared, refs: 1}
	for _, w := range widths {
		c.words += w
	}
	if shared {
		c.chunks = make([][]uint64, maxMemoCycles/chunkCycles)
	} else {
		c.chunks = [][]uint64{make([]uint64, chunkCycles*c.words)}
	}
	return c
}

// cycle returns the words post-reset cycle i drives, the widths' words
// back to back. The slice aliases the entry: treat it as read-only.
func (c *laneColumns) cycle(i int) []uint64 {
	j, off := i/chunkCycles, i%chunkCycles*c.words
	var chunk []uint64
	if c.shared {
		if j >= int(c.published.Load()) {
			c.grow(j)
		}
		chunk = c.chunks[j]
	} else {
		chunk = c.chunks[0]
		if off == 0 {
			c.draw(chunk)
		}
	}
	return chunk[off : off+c.words : off+c.words]
}

// grow draws and publishes every chunk up to j, then gives the
// generators back once the entry holds all its chunks.
func (c *laneColumns) grow(j int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := int(c.published.Load()); n <= j; n++ {
		chunk := make([]uint64, chunkCycles*c.words)
		c.draw(chunk)
		c.chunks[n] = chunk
		c.published.Store(int32(n + 1))
	}
	if int(c.published.Load()) == len(c.chunks) {
		c.putRNGs()
	}
}

// draw fills chunk with the next chunkCycles cycles: per cycle and per
// width, one value from each lane's generator, bit-sliced into that many
// words. Called with mu held, or by a private entry's one caller.
func (c *laneColumns) draw(chunk []uint64) {
	if c.rngs == nil {
		c.rngs = make([]*rand.Rand, c.lanes)
		for k := range c.rngs {
			c.rngs[k] = rngPool.Get().(*rand.Rand)
			c.rngs[k].Seed(c.seed + int64(k))
		}
	}
	var col [64]uint64
	off := 0
	for range chunkCycles {
		for _, w := range c.widths {
			for k, r := range c.rngs {
				col[k] = r.Uint64()
			}
			psim.BitSlice(chunk[off:off+w], col[:c.lanes])
			off += w
		}
	}
}

// release drops one reference; the last gives the generators back.
func (c *laneColumns) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs--; c.refs == 0 {
		c.putRNGs()
	}
}

// putRNGs returns the generators to the pool. Called with mu held.
func (c *laneColumns) putRNGs() {
	for _, r := range c.rngs {
		rngPool.Put(r)
	}
	c.rngs = nil
}

// rngPool recycles the lanes' generators: a math/rand source is about
// 5 KB, and Seed restarts exactly the stream rand.NewSource(seed) yields.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}
