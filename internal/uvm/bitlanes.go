package uvm

// Bit-parallel candidate screening. The batch scorer buys its candidate
// throughput with real simulated cycles: L lanes of k-cycle snippets
// consume L·k of the coverage budget. The BitLanes scorer instead screens
// up to 64 candidates one-bit-per-word on the blasted cycle AIG
// (internal/psim) — one sweep advances all of them a cycle, at roughly
// the cost of a single scalar lane — and spends real simulation only on
// the winner, replayed on the scalar coverage harness. Coverage sampling
// stays scalar: the engine lanes carry no collectors, so the scorer
// ranks them by a toggle-activity novelty proxy (state bits a candidate
// flipped that no committed cycle has flipped yet), and cfg.Cycles
// counts exactly the replayed, coverage-collecting cycles — the merged
// map's sample counts line up with CoverageRandom's, like the one-lane
// batch loop's.

import (
	"math/bits"

	"uvllm/internal/cover"
	"uvllm/internal/psim"
	"uvllm/internal/sim"
)

// bitLanes is the bit scorer's per-round candidate count: cfg.Lanes,
// with 64 as the default and the cap.
func (cfg StimConfig) bitLanes() int {
	if cfg.Lanes < 2 || cfg.Lanes > 64 {
		return 64
	}
	return cfg.Lanes
}

// directedBits is the bit-parallel directed loop on eng, a psim engine
// of p with cfg.bitLanes() lanes: each round broadcasts the committed
// harness state into the engine, drives one candidate snippet per lane
// in bit-sliced sweeps, scores every candidate by toggle novelty, and
// replays only the best candidate on the coverage harness — which is
// also the committed state the next round speculates from.
func directedBits(p *sim.Program, eng *psim.Engine, cfg StimConfig) (*cover.Map, *Corpus, error) {
	lanes := eng.Lanes()
	h, err := coverHarness(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	d := p.Design()
	g := newSnippetGen(d, cfg)

	m := h.Coverage()
	corpus := &Corpus{}
	// Toggle bits the committed trajectory has already exercised, per
	// arena signal: bit b of seen01[i] set means signal i's bit b has
	// risen on the committed path. Candidates score by what they flip
	// beyond this.
	seen01 := make([]uint64, d.NumSignals())
	seen10 := make([]uint64, d.NumSignals())
	rows := make([][]uint64, lanes)
	remaining := cfg.Cycles
	for remaining > 0 {
		k := min(snippetLen, remaining)
		candidates := make([][][]uint64, lanes)
		for l := range candidates {
			candidates[l] = g.next(corpus, k)
		}
		eng.Broadcast(h.Sim)
		eng.StartActivity()
		for c := 0; c < k; c++ {
			for l := range rows {
				rows[l] = candidates[l][c]
			}
			if err := eng.Cycle(rows); err != nil {
				return m, corpus, err
			}
		}
		best, bestScore := 0, -1
		for l := 0; l < lanes; l++ {
			score := 0
			for i := 0; i < d.NumSignals(); i++ {
				t01, t10 := eng.Activity(i)
				score += bits.OnesCount64(psim.Lane(t01, l) &^ seen01[i])
				score += bits.OnesCount64(psim.Lane(t10, l) &^ seen10[i])
			}
			if score > bestScore {
				best, bestScore = l, score
			}
		}
		// Replay the winner on the scalar coverage harness: real coverage
		// for the map and the corpus, and the committed state the next
		// round's broadcast starts from.
		before := m.Hit()
		for _, row := range candidates[best] {
			if err := h.CycleRow(row); err != nil {
				return m, corpus, err
			}
			remaining--
		}
		if gain := m.Hit() - before; gain > 0 {
			corpus.Entries = append(corpus.Entries, CorpusEntry{Vectors: candidates[best], Gain: gain})
		}
		for i := 0; i < d.NumSignals(); i++ {
			t01, t10 := eng.Activity(i)
			seen01[i] |= psim.Lane(t01, best)
			seen10[i] |= psim.Lane(t10, best)
		}
	}
	return m, corpus, nil
}
