package faultgen

import (
	"fmt"
	"sync"

	"uvllm/internal/dataset"
	"uvllm/internal/lint"
	"uvllm/internal/memo"
	"uvllm/internal/uvm"
)

// Fault is one benchmark instance: a verified module with one injected
// error, plus the metadata the harness and the repair oracle need.
type Fault struct {
	ID      string // "<module>/<class>-<variant>"
	Module  string // dataset module name
	Class   Class
	Variant int
	Source  string // faulty source
	Golden  string // the verified source
	Descr   string // what was injected
}

// Meta returns the dataset module this fault was injected into.
func (f *Fault) Meta() *dataset.Module { return dataset.ByName(f.Module) }

// BenchmarkSize is the size of the released error dataset (paper: "331
// code instances with realistic errors").
const BenchmarkSize = 331

// Generate injects one fault class into a module, returning every
// applicable, validated variant. An empty result is an "×" cell of Fig. 7:
// the module's structure cannot express the class.
//
// Generation is a pure function of (module name, module source, class),
// so each cell is generated once per process and every caller shares the
// result: the returned slice and the faults it points to are read-only.
// The slice's capacity equals its length, so appending to it copies
// instead of writing into the shared array.
func Generate(m *dataset.Module, class Class) []*Fault {
	fs, _ := generated.Do(cellKey{m.Name, m.Source, class}, func() ([]*Fault, error) {
		return generate(m, class), nil
	})
	return fs
}

// cellKey identifies one (module, class) cell of the generator.
type cellKey struct {
	module, source string
	class          Class
}

// generated memoizes Generate. Its bound is twice the dataset's cells
// (27 modules × 9 classes), so the dataset never evicts (a module edited
// by a test takes a slot of its own). Process-wide scope is safe because
// the dataset is fixed and generation deterministic.
var generated = memo.New[cellKey, []*Fault](2 * len(dataset.All()) * len(Classes()))

// GenerateStats returns the Generate memo's counters: a miss is one
// (module, class) cell generated, a hit is one served from the memo.
func GenerateStats() memo.Stats { return generated.Stats() }

// generate is Generate without the memo.
func generate(m *dataset.Module, class Class) []*Fault {
	var out []*Fault
	seen := map[string]bool{m.Source: true}
	for i, mu := range mutate(m.Source, class) {
		if seen[mu.src] {
			continue
		}
		seen[mu.src] = true
		f := &Fault{
			ID:      fmt.Sprintf("%s/%s-%d", m.Name, class, i),
			Module:  m.Name,
			Class:   class,
			Variant: i,
			Source:  mu.src,
			Golden:  m.Source,
			Descr:   mu.descr,
		}
		if Effective(f) {
			out = append(out, f)
		}
	}
	return out[:len(out):len(out)]
}

// Effective validates that the injected error is triggerable, enforcing
// the paper's "all errors are triggered during verification" property:
//
//   - a syntax-class fault must produce at least one linter error;
//   - a functional-class fault must parse, and must either be observed as
//     a mismatch by a high-coverage random testbench or be flagged by the
//     linter (declaration/timing misuses surface as lint findings that the
//     pre-processing stage repairs).
func Effective(f *Fault) bool {
	rep := lint.Lint(f.Source)
	if f.Class.IsSyntax() {
		return len(rep.Errors()) > 0
	}
	if rep.HasSyntaxError() {
		return false // functional fault must not break the syntax
	}
	if len(rep.Errors()) > 0 || len(rep.FocusedWarnings()) > 0 {
		return true
	}
	rate, err := observe(f)
	if err != nil {
		return true // simulation failure is certainly observable
	}
	return rate < 1.0
}

// observe runs the faulty source under the golden UVM testbench.
func observe(f *Fault) (float64, error) {
	m := f.Meta()
	env, err := uvm.NewEnv(uvm.Config{
		Source: f.Source, Top: m.Top, Clock: m.Clock, RefName: m.Name, Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	return env.Run(uvm.NewRandomSequence(env.DUT.Sim.Design(), env.DUT.Clock, 300)), nil
}

var (
	benchOnce sync.Once
	benchAll  []*Fault
)

// Benchmark generates the full error dataset: every validated variant of
// every class on every module, deterministically trimmed to BenchmarkSize
// while keeping at least one instance per non-empty (module, class) cell.
func Benchmark() []*Fault {
	benchOnce.Do(func() {
		var all []*Fault
		perCell := map[string][]*Fault{}
		var synCells, fnCells []string
		synAvail, fnAvail := 0, 0
		for _, m := range dataset.All() {
			for _, c := range Classes() {
				fs := Generate(m, c)
				if len(fs) == 0 {
					continue
				}
				key := m.Name + "/" + string(c)
				perCell[key] = fs
				if c.IsSyntax() {
					synCells = append(synCells, key)
					synAvail += len(fs)
				} else {
					fnCells = append(fnCells, key)
					fnAvail += len(fs)
				}
				all = append(all, fs...)
			}
		}
		if len(all) <= BenchmarkSize {
			benchAll = all
			return
		}
		// Composition target: the paper's aggregate fix rates (Table II
		// overall 79.75% vs 86.99% syntax / 71.92% functional) imply a
		// roughly 52/48 syntax/functional split of the 331 instances.
		targetFn := fnAvail
		if targetFn > 159 {
			targetFn = 159
		}
		targetSyn := BenchmarkSize - targetFn
		if targetSyn > synAvail {
			targetSyn = synAvail
			targetFn = BenchmarkSize - targetSyn
		}
		drop := map[*Fault]bool{}
		trim := func(cells []string, avail, target int) {
			for avail > target {
				trimmed := false
				for i := len(cells) - 1; i >= 0 && avail > target; i-- {
					fs := perCell[cells[i]]
					if len(fs) <= 1 {
						continue
					}
					drop[fs[len(fs)-1]] = true
					perCell[cells[i]] = fs[:len(fs)-1]
					avail--
					trimmed = true
				}
				if !trimmed {
					break
				}
			}
		}
		trim(synCells, synAvail, targetSyn)
		trim(fnCells, fnAvail, targetFn)
		for _, f := range all {
			if !drop[f] {
				benchAll = append(benchAll, f)
			}
		}
	})
	return benchAll
}

// BenchmarkByModule groups the benchmark by module name.
func BenchmarkByModule() map[string][]*Fault {
	out := map[string][]*Fault{}
	for _, f := range Benchmark() {
		out[f.Module] = append(out[f.Module], f)
	}
	return out
}
