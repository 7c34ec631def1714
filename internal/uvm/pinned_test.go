package uvm

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/sim"
)

// renderVectors writes a corpus entry's vectors in stimulus-port order,
// one line per cycle — the rendering the digests were recorded under when
// corpus vectors were per-cycle maps keyed by port name.
func renderVectors(h hash.Hash, ports []sim.PortInfo, vecs [][]uint64) {
	for _, row := range vecs {
		for i := range ports {
			fmt.Fprintf(h, "%x,", row[i])
		}
		fmt.Fprintln(h)
	}
}

// TestCoverageDirectedPinned pins every directed scorer's output over
// the dataset goldens: the random baseline's map, the directed map and
// percentage, and every corpus entry's gain and vectors (rendered in
// stimulus-port order). One digest per (config, seed); the configs cover
// the one-lane loop at two budgets, the 8-lane batch scorer and the
// bit-parallel scorer. The digests were recorded before the scorers
// moved from map to row stimulus and the one-lane loop onto sim.Batch.
func TestCoverageDirectedPinned(t *testing.T) {
	configs := []struct {
		name string
		cfg  StimConfig
	}{
		{"c64", StimConfig{Cycles: 64}},
		{"c300", StimConfig{Cycles: 300}},
		{"batch8", StimConfig{Cycles: 2000, Lanes: 8}},
		{"bit8", StimConfig{Cycles: 2000, Lanes: 8, BitLanes: true}},
	}
	want := map[string]string{
		"c64/1":    "f766173c519cc3fe62de4e9c",
		"c64/7":    "dde19ff14ce40aacb3e661f4",
		"c300/1":   "22941c39e3aef9d83b3da03b",
		"c300/7":   "5f32bb1067b77f1c91fa785c",
		"batch8/1": "8d8b56b2220166075c6d1e37",
		"batch8/7": "69872b2bd33d534ddfe079fb",
		"bit8/1":   "3b6c6e62f27786eb08ebcfab",
		"bit8/7":   "803587b76d7724cc7e3e017a",
	}
	mods := dataset.All()
	progs := make([]*sim.Program, len(mods))
	for i, m := range mods {
		p, err := sim.CompileSource(m.Source, m.Top, sim.BackendCompiled)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		progs[i] = p
	}
	for _, c := range configs {
		for _, seed := range []int64{1, 7} {
			h := sha256.New()
			for i, m := range mods {
				cfg := c.cfg
				cfg.Clock, cfg.Seed = m.Clock, seed
				mr, err := CoverageRandom(progs[i], cfg)
				if err != nil {
					t.Fatalf("%s %s random: %v", c.name, m.Name, err)
				}
				md, corpus, err := CoverageDirected(progs[i], cfg)
				if err != nil {
					t.Fatalf("%s %s directed: %v", c.name, m.Name, err)
				}
				fmt.Fprintf(h, "%s\n%s%s%.17g\n", m.Name, mr.Encode(), md.Encode(), md.Percent())
				ports := stimPorts(progs[i].Design(), m.Clock)
				for _, e := range corpus.Entries {
					fmt.Fprintf(h, "gain %d\n", e.Gain)
					renderVectors(h, ports, e.Vectors)
				}
			}
			key := fmt.Sprintf("%s/%d", c.name, seed)
			got := fmt.Sprintf("%x", h.Sum(nil)[:12])
			if want[key] != got {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}
