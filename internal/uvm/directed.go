package uvm

// Coverage-directed stimulus. Random vectors exercise a DUT's easy
// structure quickly but plateau: equality branches, rare case arms and
// deep FSM states need specific values that a uniform draw over a wide
// input space almost never produces. The directed layer closes the loop
// the paper's fixed-budget UVM stage leaves open — it watches the
// structural coverage map grow, keeps the stimulus snippets that grew it
// (a corpus scheduled by new-coverage gain, in the AFL tradition), and
// generates candidates by mutating saved seeds and by drawing boundary
// values and design constants instead of uniform randoms.

import (
	"fmt"
	"math/rand"

	"uvllm/internal/cover"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// StimConfig configures one coverage measurement run (random or
// directed) over a compiled program.
type StimConfig struct {
	// Clock is the clock input name ("" for combinational DUTs).
	Clock string
	// Cycles is the stimulus budget: the number of harness cycles driven
	// after reset. Random and directed runs with equal Cycles are
	// directly comparable.
	Cycles int
	// Seed feeds the deterministic stimulus RNG.
	Seed int64
	// Cover selects the coverage models; the zero value means CoverAll.
	Cover sim.CoverOptions
	// SnippetLen is the length in cycles of one directed stimulus
	// snippet (default 5). Shorter snippets give finer gain attribution;
	// longer ones reach deeper sequential behavior.
	SnippetLen int
	// Lanes is the batched candidate scorer's width: CoverageDirected
	// evaluates that many candidate snippets per round in one sim.Batch
	// (fused sweeps, shared schedule decode) and continues from the best,
	// under the same total cycle budget. 0 or 1 scores one candidate per
	// round.
	Lanes int
	// BitLanes selects the bit-parallel candidate scorer instead: each
	// round screens up to 64 candidate snippets one-bit-per-word on the
	// blasted cycle AIG (internal/psim), ranked by toggle-activity
	// novelty, and replays only the winner on the scalar coverage
	// harness. Coverage sampling stays scalar, so Cycles counts replayed
	// (coverage-collecting) cycles only. Lanes bounds the per-round
	// candidate count (default and cap 64); designs outside the
	// bit-parallel subset fall back to the sim.Batch scorer.
	BitLanes bool
}

func (c StimConfig) cover() sim.CoverOptions {
	if c.Cover.Any() {
		return c.Cover
	}
	return sim.CoverAll()
}

func (c StimConfig) snippetLen() int {
	if c.SnippetLen > 0 {
		return c.SnippetLen
	}
	return 5
}

// CorpusEntry is one saved stimulus snippet and the new-coverage gain it
// produced when first executed. Vectors holds one row per cycle, aligned
// with the stimulus ports: the non-clock inputs in declaration order, the
// layout of sim.Harness.Ports.
type CorpusEntry struct {
	Vectors [][]uint64
	Gain    int
}

// Corpus is the set of coverage-raising stimulus snippets a directed run
// accumulated. Entries are scheduled for mutation with probability
// proportional to their recorded gain.
type Corpus struct {
	Entries []CorpusEntry
}

// totalGain sums the recorded gains (the mutation lottery's ticket count).
func (c *Corpus) totalGain() int {
	n := 0
	for _, e := range c.Entries {
		n += e.Gain
	}
	return n
}

// pick draws a corpus entry gain-weighted, or nil when the corpus is
// empty.
func (c *Corpus) pick(rng *rand.Rand) *CorpusEntry {
	total := c.totalGain()
	if total == 0 {
		return nil
	}
	t := rng.Intn(total)
	for i := range c.Entries {
		t -= c.Entries[i].Gain
		if t < 0 {
			return &c.Entries[i]
		}
	}
	return &c.Entries[len(c.Entries)-1]
}

// CoverageRandom measures the structural coverage a plain
// constrained-random run reaches: cfg.Cycles uniform vectors over the
// non-clock inputs with the reset held inactive — exactly the stimulus
// RandomSequence drives — after a 2-cycle reset phase.
func CoverageRandom(p *sim.Program, cfg StimConfig) (*cover.Map, error) {
	h, err := coverHarness(p, cfg)
	if err != nil {
		return nil, err
	}
	g := newSnippetGen(p.Design(), cfg)
	row := make([]uint64, len(g.ports))
	for i := 0; i < cfg.Cycles; i++ {
		g.uniform(row)
		if err := h.CycleRow(row); err != nil {
			return h.Coverage(), err
		}
	}
	return h.Coverage(), nil
}

// CoverageDirected measures the structural coverage the
// coverage-directed loop reaches under the same cycle budget as
// CoverageRandom, returning the final map and the corpus of
// coverage-raising snippets. The loop runs round by round: each
// candidate snippet is either a mutation of a gain-weighted corpus seed
// or a fresh snippet drawn from the boundary/constant-biased value
// distribution, and any snippet that hits new points joins the corpus.
// cfg.Lanes candidates per round are scored on a sim.Batch; cfg.BitLanes
// screens them on the bit-parallel engine instead, and designs outside
// its subset fall back to the batch scorer at two lanes or more.
func CoverageDirected(p *sim.Program, cfg StimConfig) (*cover.Map, *Corpus, error) {
	lanes := max(cfg.Lanes, 1)
	if cfg.BitLanes {
		// Blasting is the subset check: a design the engine cannot be
		// built for runs on the batch scorer.
		if eng, err := psim.NewEngine(p, cfg.bitLanes(), cfg.Clock); err == nil {
			return directedBits(p, eng, cfg)
		}
		lanes = max(cfg.Lanes, 2)
	}
	return directedBatch(p, cfg, lanes)
}

// directedBatch is the lane-parallel directed loop: each round restores
// up to `lanes` instances of one sim.Batch to the committed state, drives
// one candidate snippet per lane in fused sweeps, scores every
// candidate's coverage gain against the accumulated map, and continues
// from the best candidate's post-snippet state. All simulated cycles
// count against cfg.Cycles (L lanes × k-cycle snippets consume L·k), so
// runs stay budget-comparable with CoverageRandom; every lane's observed
// coverage is merged — a losing candidate's points were still genuinely
// exercised. At one lane this is the plain sequential loop.
func directedBatch(p *sim.Program, cfg StimConfig, lanes int) (*cover.Map, *Corpus, error) {
	b, err := sim.NewBatch(p, lanes, cfg.Clock)
	if err != nil {
		return nil, nil, err
	}
	if err := b.EnableCover(cfg.cover()); err != nil {
		return nil, nil, err
	}
	if err = b.ApplyReset(2); err == nil {
		err = b.Err(0)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("uvm: cover reset: %w", err)
	}
	g := newSnippetGen(p.Design(), cfg)

	m := b.Coverage(0).Clone() // reset-phase coverage, identical on every lane
	cur := b.Lane(0).Snapshot()
	corpus := &Corpus{}
	rows := make([][]uint64, lanes)
	remaining := cfg.Cycles
	for remaining > 0 {
		k := min(cfg.snippetLen(), remaining)
		live := min(max(remaining/k, 1), lanes) // candidates this round within budget
		candidates := make([][][]uint64, live)
		for l := range candidates {
			candidates[l] = g.next(corpus, k)
		}
		for l := 0; l < live; l++ {
			// Fresh per-round map first, then restore: the rewind lands the
			// FSM sampler history in the new collector, so each lane's map
			// holds exactly this snippet's coverage.
			if err := b.EnableCoverLane(l, cfg.cover()); err != nil {
				return m, corpus, err
			}
			if err := b.Lane(l).Restore(cur); err != nil {
				return m, corpus, err
			}
		}
		for c := 0; c < k; c++ {
			for l := range rows {
				rows[l] = nil
				if l < live {
					rows[l] = candidates[l][c]
				}
			}
			if err := b.Cycle(rows); err != nil {
				return m, corpus, err
			}
		}
		best, bestGain := -1, -1
		for l := 0; l < live; l++ {
			if b.Err(l) != nil {
				continue
			}
			if gain := m.Gain(b.Coverage(l)); gain > bestGain {
				best, bestGain = l, gain
			}
		}
		if best < 0 {
			return m, corpus, b.Err(0)
		}
		for l := 0; l < live; l++ {
			if b.Err(l) != nil {
				continue
			}
			if gain := m.Gain(b.Coverage(l)); gain > 0 {
				corpus.Entries = append(corpus.Entries, CorpusEntry{Vectors: candidates[l], Gain: gain})
			}
			m.Merge(b.Coverage(l))
		}
		cur = b.Lane(best).Snapshot()
		remaining -= live * k
	}
	return m, corpus, nil
}

// coverHarness compiles nothing: it instantiates the program, enables
// coverage (harness-clock excluded) and applies the reset phase.
func coverHarness(p *sim.Program, cfg StimConfig) (*sim.Harness, error) {
	inst, err := p.NewInstance()
	if err != nil {
		return nil, err
	}
	h := sim.NewHarness(inst, cfg.Clock)
	if err := h.EnableCover(cfg.cover()); err != nil {
		return nil, err
	}
	if err := h.ApplyReset(2); err != nil {
		return nil, fmt.Errorf("uvm: cover reset: %w", err)
	}
	return h, nil
}

// stimPorts returns the drivable inputs (everything but the clock).
func stimPorts(d *sim.Design, clock string) []sim.PortInfo {
	var out []sim.PortInfo
	for _, pt := range d.Inputs() {
		if pt.Name == clock {
			continue
		}
		out = append(out, pt)
	}
	return out
}

// snippetGen draws stimulus as rows aligned with the stimulus ports,
// always with the reset held inactive: the initial reset phase already
// exercises the reset branches, and mid-run resets would keep clearing
// the accumulated state whose high bits are the hardest toggle points.
type snippetGen struct {
	rng     *rand.Rand
	ports   []sim.PortInfo
	dict    []uint64 // nonzero design constants
	rst     int      // reset column, -1 when the design has none
	hold    uint64   // the reset column's inactive value
	mutable []int    // every column but the reset
}

func newSnippetGen(d *sim.Design, cfg StimConfig) *snippetGen {
	g := &snippetGen{rng: rand.New(rand.NewSource(cfg.Seed)), ports: stimPorts(d, cfg.Clock), rst: -1}
	var rstName string
	rstName, g.hold = sim.FindResetDeassert(d)
	for i, pt := range g.ports {
		if pt.Name == rstName {
			g.rst = i
		} else {
			g.mutable = append(g.mutable, i)
		}
	}
	// Zero is already a boundary draw; keeping it in the dictionary would
	// only double its weight.
	for _, c := range d.Constants() {
		if c != 0 {
			g.dict = append(g.dict, c)
		}
	}
	return g
}

// rows allocates a k-cycle snippet over one slab.
func (g *snippetGen) rows(k int) [][]uint64 {
	n := len(g.ports)
	slab := make([]uint64, k*n)
	out := make([][]uint64, k)
	for i := range out {
		out[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

func (g *snippetGen) holdReset(row []uint64) {
	if g.rst >= 0 {
		row[g.rst] = g.hold
	}
}

// uniform fills row with plain uniform values — the random baseline's
// own distribution.
func (g *snippetGen) uniform(row []uint64) {
	for i, pt := range g.ports {
		row[i] = g.rng.Uint64() & verilog.Mask(pt.Width)
	}
	g.holdReset(row)
}

// next produces the next snippet to try. The mix matters: pure uniform
// snippets keep the per-bit entropy (and with it the toggle coverage
// rate) at the random baseline, biased snippets reach equality branches
// and case arms uniform draws almost never hit, and mutations of
// gain-weighted corpus seeds re-enter the rare states those snippets
// discovered.
func (g *snippetGen) next(corpus *Corpus, k int) [][]uint64 {
	switch g.rng.Intn(5) {
	case 0:
		if e := corpus.pick(g.rng); e != nil {
			return g.mutate(e.Vectors, k)
		}
	case 1, 2:
		return g.fresh(k)
	}
	out := g.rows(k)
	for _, row := range out {
		g.uniform(row)
	}
	return out
}

// fresh draws k cycles of boundary/constant-biased vectors.
func (g *snippetGen) fresh(k int) [][]uint64 {
	out := g.rows(k)
	for _, row := range out {
		for i, pt := range g.ports {
			row[i] = biasedValue(g.rng, pt.Width, g.dict)
		}
		g.holdReset(row)
	}
	return out
}

// mutate copies a corpus seed, resizes it to k cycles and rewrites a few
// (cycle, port) positions with biased values or single-bit flips. The
// reset column is never a mutation target: a flipped reset would
// re-clear exactly the deep state the corpus seed was saved for
// reaching.
func (g *snippetGen) mutate(seed [][]uint64, k int) [][]uint64 {
	out := g.rows(k)
	for i, row := range out {
		copy(row, seed[i%len(seed)])
		g.holdReset(row)
	}
	if len(g.mutable) == 0 {
		return out
	}
	muts := 1 + g.rng.Intn(3)
	for i := 0; i < muts; i++ {
		cyc := g.rng.Intn(k)
		j := g.mutable[g.rng.Intn(len(g.mutable))]
		w := g.ports[j].Width
		if g.rng.Intn(2) == 0 {
			out[cyc][j] = biasedValue(g.rng, w, g.dict)
		} else {
			out[cyc][j] ^= 1 << uint(g.rng.Intn(w)) // bit flip
			out[cyc][j] &= verilog.Mask(w)
		}
	}
	return out
}

// biasedValue draws one input value from the coverage-seeking
// distribution: boundary values (0, max), walking single bits, design
// constants, and a fat uniform tail — the tail keeps per-cycle entropy
// (and with it toggle coverage) close to the pure-random baseline, while
// the biased half reaches the equality branches and case arms uniform
// draws almost never hit.
func biasedValue(rng *rand.Rand, width int, dict []uint64) uint64 {
	max := verilog.Mask(width)
	// Narrow ports: uniform draws already cover the value space densely;
	// biasing them only skews duty cycles (a slower enable, a stickier
	// select) without reaching anything new.
	if width <= 2 {
		return rng.Uint64() & max
	}
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return max
	case 2:
		return (1 << uint(rng.Intn(width))) & max
	case 3, 4:
		if len(dict) > 0 {
			return dict[rng.Intn(len(dict))] & max
		}
		return rng.Uint64() & max
	default:
		return rng.Uint64() & max
	}
}
