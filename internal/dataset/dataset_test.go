package dataset

import (
	"slices"
	"strings"
	"testing"

	"uvllm/internal/verilog"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 27 {
		t.Fatalf("registry has %d modules, want 27", len(all))
	}
	if len(Names()) != 27 {
		t.Fatal("Names() size mismatch")
	}
	for _, m := range all {
		if ByName(m.Name) != m {
			t.Errorf("ByName(%q) broken", m.Name)
		}
	}
	if ByName("no_such_module") != nil {
		t.Error("ByName of unknown must be nil")
	}
	for _, c := range Categories() {
		if !slices.ContainsFunc(all, func(m *Module) bool { return m.Category == c }) {
			t.Errorf("category %s empty", c)
		}
	}
}

func TestModuleMetadataConsistent(t *testing.T) {
	for _, m := range All() {
		if strings.TrimSpace(m.Spec) == "" {
			t.Errorf("%s: empty specification", m.Name)
		}
		if !strings.Contains(m.Spec, m.Name) {
			t.Errorf("%s: specification does not name the module", m.Name)
		}
		if m.Complexity < 1 || m.Complexity > 5 {
			t.Errorf("%s: complexity %d out of range", m.Name, m.Complexity)
		}
		f := verilog.MustParse(m.Source)
		top := f.Module(m.Top)
		if top == nil {
			t.Fatalf("%s: top module %q not in source", m.Name, m.Top)
		}
		if m.Clock != "" {
			p := top.Port(m.Clock)
			if p == nil || p.Dir != verilog.DirInput {
				t.Errorf("%s: clock %q is not an input port", m.Name, m.Clock)
			}
			// Clocked modules must have an edge-triggered always block.
			edged := false
			for _, it := range top.Items {
				if ab, ok := it.(*verilog.AlwaysBlock); ok && ab.Sens.Edged() {
					edged = true
				}
			}
			if !edged {
				t.Errorf("%s: clocked but no edged always block", m.Name)
			}
		}
		if m.HasReset {
			if top.Port("rst_n") == nil {
				t.Errorf("%s: HasReset but no rst_n port", m.Name)
			}
			if !strings.Contains(m.Source, "negedge rst_n") {
				t.Errorf("%s: reset not asynchronous active-low", m.Name)
			}
		}
		if m.IsFSM && m.Category != Control {
			t.Errorf("%s: FSMs belong to the Control group", m.Name)
		}
	}
}

func TestModulesHaveOutputs(t *testing.T) {
	for _, m := range All() {
		f := verilog.MustParse(m.Source)
		top := f.Module(m.Top)
		if !slices.ContainsFunc(top.Ports, func(p *verilog.Port) bool { return p.Dir == verilog.DirOutput }) {
			t.Errorf("%s: no outputs to verify", m.Name)
		}
		if len(top.InputPorts()) == 0 {
			t.Errorf("%s: no inputs to stimulate", m.Name)
		}
	}
}

func TestSignalWidthsWithinSimulatorLimit(t *testing.T) {
	for _, m := range All() {
		f := verilog.MustParse(m.Source)
		for _, mod := range f.Modules {
			env, err := verilog.ModuleParams(mod)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			for _, p := range mod.Ports {
				if w, err := verilog.RangeWidth(p.Range, env); err != nil || w > 64 {
					t.Errorf("%s: port %s width %d err=%v", m.Name, p.Name, w, err)
				}
			}
		}
	}
}
