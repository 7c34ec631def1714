package psim

import (
	"errors"
	"math/rand"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/formal"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// TestTranspose64 checks the block transpose against the naive bit-by-bit
// definition and the involution property.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	var want [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			want[j] |= (orig[i] >> uint(j) & 1) << uint(i)
		}
	}
	Transpose64(&a)
	if a != want {
		t.Fatal("Transpose64 disagrees with the naive transpose")
	}
	Transpose64(&a)
	if a != orig {
		t.Fatal("Transpose64 is not an involution")
	}
}

// TestBitSliceMatchesTranspose checks the stimulus converter against
// the full transpose for every width 1-64 and lane count 1-64 on random
// lane values: dst must equal the first w rows of Transpose64 over the
// same lanes, with the lanes at or above the count zero. dst starts as
// garbage, and the lanes past the count hold garbage the converter must
// not read.
func TestBitSliceMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var vals [64]uint64
	dst := make([]uint64, 64)
	for w := 1; w <= 64; w++ {
		for lanes := 1; lanes <= 64; lanes++ {
			for k := range vals {
				vals[k] = rng.Uint64()
			}
			var want [64]uint64
			copy(want[:], vals[:lanes])
			Transpose64(&want)
			for b := range dst {
				dst[b] = rng.Uint64()
			}
			BitSlice(dst[:w], vals[:lanes])
			for b := 0; b < w; b++ {
				if dst[b] != want[b] {
					t.Fatalf("width %d, %d lanes: word %d = %#x, want %#x", w, lanes, b, dst[b], want[b])
				}
			}
		}
	}
}

// TestMachineAgreesWithEval cross-checks the word evaluator against
// AIG.Eval on a random circuit: 64 random assignments per sweep, every
// lane must match the per-assignment reference evaluation.
func TestMachineAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := formal.NewAIG()
	vars := make([]formal.Lit, 24)
	for i := range vars {
		vars[i] = g.NewVar()
	}
	pool := append([]formal.Lit{formal.False, formal.True}, vars...)
	for i := 0; i < 400; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		l := g.And(a, b)
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		pool = append(pool, l)
	}
	roots := pool[len(pool)-32:]

	m := NewMachine(g)
	words := make([]uint64, len(vars))
	for i := range words {
		words[i] = rng.Uint64()
		m.SetVar(vars[i], words[i])
	}
	m.Sweep()
	for lane := 0; lane < 64; lane++ {
		ref := g.Eval(func(node uint32) bool {
			for i, v := range vars {
				if v.Node() == node {
					return words[i]>>uint(lane)&1 == 1
				}
			}
			return false
		}, roots)
		for ri, r := range roots {
			got := m.Word(r)>>uint(lane)&1 == 1
			if got != ref[ri] {
				t.Fatalf("lane %d root %d: machine=%v eval=%v", lane, ri, got, ref[ri])
			}
		}
	}
}

// TestEngineMatchesHarness drives every supported dataset module with 16
// lanes of random full-row stimulus, bit-parallel and standalone, and
// requires identical outputs every cycle and identical final state
// (signals and memories). This is the in-package identity check; the adversarial
// differential gate over generated designs lives in rtlgen (DiffLanes).
func TestEngineMatchesHarness(t *testing.T) {
	supported := 0
	for _, mod := range dataset.All() {
		p, err := sim.CompileSource(mod.Source, mod.Top, sim.BackendCompiled)
		if err != nil {
			t.Fatalf("%s: compile: %v", mod.Name, err)
		}
		if err := Supported(p, mod.Clock); err != nil {
			continue
		}
		supported++
		const lanes, cycles = 16, 24
		e, err := NewEngine(p, lanes, mod.Clock)
		if err != nil {
			t.Fatalf("%s: engine: %v", mod.Name, err)
		}
		refs := make([]*sim.Harness, lanes)
		for k := range refs {
			inst, err := p.NewInstance()
			if err != nil {
				t.Fatalf("%s: instance: %v", mod.Name, err)
			}
			refs[k] = sim.NewHarness(inst, mod.Clock)
		}
		if err := e.ApplyReset(2); err != nil {
			t.Fatalf("%s: engine reset: %v", mod.Name, err)
		}
		for k, h := range refs {
			if err := h.ApplyReset(2); err != nil {
				t.Fatalf("%s lane %d: harness reset: %v", mod.Name, k, err)
			}
		}
		ports := e.Ports()
		rngs := make([]*rand.Rand, lanes)
		for k := range rngs {
			rngs[k] = rand.New(rand.NewSource(900 + int64(k)))
		}
		rows := make([][]uint64, lanes)
		for cyc := 0; cyc < cycles; cyc++ {
			for k := range rows {
				row := make([]uint64, len(ports))
				for i, pt := range ports {
					row[i] = rngs[k].Uint64() & verilog.Mask(pt.Width)
				}
				rows[k] = row
			}
			if err := e.Cycle(rows); err != nil {
				t.Fatalf("%s cycle %d: %v", mod.Name, cyc, err)
			}
			for k, h := range refs {
				if err := h.CycleRow(rows[k]); err != nil {
					t.Fatalf("%s lane %d cycle %d: harness: %v", mod.Name, k, cyc, err)
				}
				want, got := h.OutputRow(nil), e.OutputRow(k, nil)
				for i, v := range want {
					if got[i] != v {
						t.Fatalf("%s lane %d cycle %d output %d: psim=0x%x harness=0x%x",
							mod.Name, k, cyc, i, got[i], v)
					}
				}
			}
		}
		for k, h := range refs {
			d := p.Design()
			for i := 0; i < d.NumSignals(); i++ {
				sv := d.Signal(i)
				if e.Get(k, sv.Name) != h.Sim.Get(sv.Name) {
					t.Fatalf("%s lane %d signal %s: psim=0x%x harness=0x%x",
						mod.Name, k, sv.Name, e.Get(k, sv.Name), h.Sim.Get(sv.Name))
				}
				for dw := 0; dw < sv.Depth; dw++ {
					if e.GetMem(k, sv.Name, dw) != h.Sim.GetMem(sv.Name, dw) {
						t.Fatalf("%s lane %d mem %s[%d]: psim=0x%x harness=0x%x",
							mod.Name, k, sv.Name, dw, e.GetMem(k, sv.Name, dw), h.Sim.GetMem(sv.Name, dw))
					}
				}
			}
		}
	}
	if supported < 10 {
		t.Fatalf("only %d dataset modules in the bit-parallel subset; expected a substantial majority", supported)
	}
	t.Logf("bit-parallel subset: %d/%d dataset modules", supported, len(dataset.All()))
}

// TestFallbackUnsupported checks that a design outside the subset (an
// edge trigger on a data strobe, which is neither the clock nor the
// conventional reset) is rejected with formal.ErrUnsupported — the lane
// consumers' cue to run it on sim.Batch instead.
func TestFallbackUnsupported(t *testing.T) {
	src := `module ff(input clk, input strobe, input d, output reg q);
always @(posedge strobe) q <= d;
endmodule`
	p, err := sim.CompileSource(src, "ff", sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := Supported(p, "clk"); !errors.Is(err, formal.ErrUnsupported) {
		t.Fatalf("strobe-triggered design: Supported = %v, want ErrUnsupported", err)
	}
	if _, err := NewEngine(p, 3, "clk"); !errors.Is(err, formal.ErrUnsupported) {
		t.Fatalf("strobe-triggered design: NewEngine error = %v, want ErrUnsupported", err)
	}
}
