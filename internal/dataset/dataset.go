// Package dataset holds the 27 verified benchmark modules the UVLLM
// evaluation is run against (paper Sec. IV, Fig. 7). The modules follow the
// RTLLM benchmark's flavor — small, idiomatic, frequently reimplemented RTL
// blocks — grouped into the four categories of paper Table II. Every module
// ships with a natural-language specification (the framework's Spec input)
// and is verified against a golden Go reference model in internal/refmodel.
package dataset

import (
	"fmt"
	"sort"
)

// Category is a module group from paper Table II.
type Category string

// Categories.
const (
	Arithmetic    Category = "Arithmetic"
	Control       Category = "Control"
	Memory        Category = "Memory"
	Miscellaneous Category = "Miscellaneous"
)

// Categories lists all categories in the paper's table order.
func Categories() []Category {
	return []Category{Arithmetic, Control, Memory, Miscellaneous}
}

// Module is one verified benchmark design.
type Module struct {
	Name       string
	Category   Category
	Spec       string // natural-language specification fed to LLM prompts
	Source     string // golden Verilog (may contain submodules)
	Top        string // top-level module name
	Clock      string // clock input name, "" for combinational designs
	HasReset   bool   // has an active-low rst_n input
	Complexity int    // 1 (trivial) .. 5 (hard); drives repair difficulty
	IsFSM      bool
}

var registry []*Module
var byName = map[string]*Module{}

func register(m *Module) {
	if _, dup := byName[m.Name]; dup {
		panic(fmt.Sprintf("dataset: duplicate module %q", m.Name))
	}
	registry = append(registry, m)
	byName[m.Name] = m
}

// All returns every benchmark module, in registration (paper table) order.
func All() []*Module {
	out := make([]*Module, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the module with the given name, or nil.
func ByName(name string) *Module { return byName[name] }

// Names returns all module names, sorted.
func Names() []string {
	var out []string
	for _, m := range registry {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}
