// Package baseline reimplements the comparison methods of the UVLLM
// evaluation (paper Figs. 5–6, Table II) at the fidelity the comparison
// needs:
//
//   - MEIC: an iterative dual-agent LLM debugger whose testbench is a
//     small set of directed vectors — the finite-test design that causes
//     its published HR≫FR overfitting;
//   - RawLLM: one-shot GPT-4-turbo repair with no error information;
//   - Strider: signal-transition-guided template repair (search over
//     mutations of suspicious lines, accepted by its own testbench);
//   - RTLRepair: template/symbolic repair with declaration-width and
//     part-select templates, strongest on bitwidth defects.
//
// The overfitting the paper reports is emergent here, not scripted: weak
// testbenches genuinely accept wrong repairs, which the expert validation
// suite in internal/exp then rejects.
package baseline

import (
	"fmt"

	"uvllm/internal/dataset"
	"uvllm/internal/llm"
	"uvllm/internal/metrics"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
	"uvllm/internal/verilog"
)

// Outcome is one baseline run on one benchmark instance.
type Outcome struct {
	Hit     bool    // the method's own testbench passes on its final code
	Final   string  // final source
	Seconds float64 // modeled execution time
	Usage   llm.Usage
}

// SimServices bundles the shared simulation machinery of one evaluation
// job: the engine selection, the content-addressed compile cache and the
// golden-trace memo. The zero value is valid (compiled backend, no
// sharing); the evaluation harness hands every baseline the same bundle,
// with the instance's job scope (sim.Cache.Scope) as its cache, so MEIC,
// raw GPT, Strider and RTL-Repair reuse each other's compiles and the
// template tools' syntax gates reuse the parses.
type SimServices struct {
	Backend sim.Backend
	Cache   *sim.Cache
	Memo    *uvm.TraceMemo
}

// Compile builds (or fetches) the Program for src on the bundle's
// backend, routing through the compile cache when one is attached.
func (svc SimServices) Compile(src, top string) (*sim.Program, error) {
	if svc.Cache != nil {
		return svc.Cache.Compile(src, top, svc.Backend)
	}
	return sim.CompileSource(src, top, svc.Backend)
}

// WeakBench builds the small directed vector set that MEIC-style methods
// test against: conventional corner patterns, no constrained-random
// exploration. Its weakness (by design) is what produces the HR−FR gap.
func WeakBench(m *dataset.Module, d *sim.Design) []map[string]uint64 {
	patterns := []func(w int) uint64{
		func(w int) uint64 { return 0 },
		func(w int) uint64 { return verilog.Mask(w) },
		func(w int) uint64 { return 0xAAAAAAAAAAAAAAAA & verilog.Mask(w) },
		func(w int) uint64 { return 1 },
		func(w int) uint64 { return 0x5555555555555555 & verilog.Mask(w) },
		func(w int) uint64 { return verilog.Mask(w) >> 1 },
		func(w int) uint64 { return 2 },
		func(w int) uint64 { return 3 },
	}
	var vectors []map[string]uint64
	for _, pat := range patterns {
		in := map[string]uint64{}
		for _, p := range d.Inputs() {
			if p.Name == m.Clock {
				continue
			}
			in[p.Name] = pat(p.Width) & verilog.Mask(p.Width)
		}
		if m.HasReset {
			in["rst_n"] = 1
		}
		vectors = append(vectors, in)
	}
	// A handful of fixed pseudo-random vectors (LCG, constant seed) —
	// directed testbenches usually sprinkle a few "random-looking" cases
	// in, but never enough for real coverage.
	state := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 16
	}
	for i := 0; i < 4; i++ {
		in := map[string]uint64{}
		for _, p := range d.Inputs() {
			if p.Name == m.Clock {
				continue
			}
			in[p.Name] = next() & verilog.Mask(p.Width)
		}
		if m.HasReset {
			in["rst_n"] = 1
		}
		vectors = append(vectors, in)
	}
	return vectors
}

// RunOwnBench executes the method's own testbench on source, returning
// pass/fail, the UVM-format log and the transaction count. Elaboration
// failures count as a failing run with the error in the log.
func RunOwnBench(source string, m *dataset.Module, vectors []map[string]uint64, svc SimServices) (bool, string, int) {
	env, err := uvm.NewEnv(uvm.Config{
		Source: source, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: 5,
		Backend: svc.Backend, Cache: svc.Cache, Memo: svc.Memo,
	})
	if err != nil {
		return false, "COMPILE_ERROR: " + err.Error(), 0
	}
	rate := env.Run(&uvm.DirectedSequence{Vectors: vectors})
	return rate == 1.0, env.Log(), len(vectors)
}

// RandomOwnBench is the slightly stronger random bench Strider-style
// tools use during candidate screening.
func RandomOwnBench(source string, m *dataset.Module, n int, seed int64, svc SimServices) (bool, string, int) {
	env, err := uvm.NewEnv(uvm.Config{
		Source: source, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: seed,
		Backend: svc.Backend, Cache: svc.Cache, Memo: svc.Memo,
	})
	if err != nil {
		return false, "COMPILE_ERROR: " + err.Error(), 0
	}
	var ports []sim.PortInfo
	for _, p := range env.DUT.Sim.Design().Inputs() {
		if p.Name == m.Clock {
			continue
		}
		ports = append(ports, p)
	}
	reset := ""
	if m.HasReset {
		reset = "rst_n"
	}
	rate := env.Run(&uvm.RandomSequence{Ports: ports, N: n, ResetName: reset})
	return rate == 1.0, env.Log(), n
}

// elaborateFor returns the design of the golden source (for port shapes)
// — baselines need port widths even when the faulty source does not
// compile. No simulation state is created: the Design hangs off the
// (cached) Program.
func elaborateFor(m *dataset.Module, svc SimServices) (*sim.Design, error) {
	p, err := svc.Compile(m.Source, m.Top)
	if err != nil {
		return nil, fmt.Errorf("baseline: golden source of %s does not elaborate: %w", m.Name, err)
	}
	return p.Design(), nil
}

var defaultCost = metrics.DefaultCostModel()
