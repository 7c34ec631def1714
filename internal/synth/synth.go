// Package synth implements the synthesis step of the UVLLM pipeline
// (paper Fig. 2: "The repaired DUT code is then synthesized as the stage
// output"). It elaborates a single Verilog module into a word-level
// dataflow netlist — the moral equivalent of Yosys's RTLIL before
// technology mapping — by symbolically executing the behavioral code:
// combinational always blocks become mux trees, edge-triggered blocks
// become registers with next-state functions, for loops are unrolled.
//
// The netlist can be evaluated (cycle-accurately, for equivalence checking
// against the event-driven simulator), optimized (constant folding, common
// subexpression elimination, dead code elimination) and reported (cell
// statistics).
//
// Unsupported constructs — module instances and memories — return errors;
// the pipeline only needs synthesis as a structural sanity gate, and the
// hierarchical/memory modules keep using the simulator path.
package synth

import (
	"fmt"
	"sort"

	"uvllm/internal/verilog"
)

// OpKind is a netlist cell type.
type OpKind int

// Cell kinds.
const (
	OpConst OpKind = iota
	OpInput
	OpReg
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpXnor
	OpNot
	OpNeg
	OpRedAnd
	OpRedOr
	OpRedXor
	OpLogAnd
	OpLogOr
	OpLogNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpShl
	OpShr
	OpMux // Args: sel, then, else
	OpConcat
	OpSlice // bits [Lo..Hi] of Args[0]
)

var opNames = map[OpKind]string{
	OpConst: "const", OpInput: "input", OpReg: "reg",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpXnor: "xnor", OpNot: "not",
	OpNeg: "neg", OpRedAnd: "redand", OpRedOr: "redor", OpRedXor: "redxor",
	OpLogAnd: "logand", OpLogOr: "logor", OpLogNot: "lognot",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpShl: "shl", OpShr: "shr", OpMux: "mux", OpConcat: "concat", OpSlice: "slice",
}

// String implements fmt.Stringer.
func (k OpKind) String() string { return opNames[k] }

// Node is one cell of the netlist.
type Node struct {
	ID    int
	Kind  OpKind
	Width int
	Args  []int
	Value uint64 // OpConst
	Name  string // OpInput / OpReg
	Lo    int    // OpSlice low bit
	Hi    int    // OpSlice high bit
}

// RegInfo describes one state element.
type RegInfo struct {
	Name string
	Node int // the OpReg node (current value)
	Next int // next-state function
	Init uint64
}

// Netlist is a synthesized module.
type Netlist struct {
	Top     string
	Nodes   []*Node
	Inputs  map[string]int
	Outputs map[string]int
	Regs    []RegInfo
}

func (n *Netlist) add(node *Node) int {
	node.ID = len(n.Nodes)
	n.Nodes = append(n.Nodes, node)
	return node.ID
}

func (n *Netlist) konst(v uint64, w int) int {
	return n.add(&Node{Kind: OpConst, Width: w, Value: v & verilog.Mask(w)})
}

// Stats counts cells by kind name (constants, inputs and regs included).
func (n *Netlist) Stats() map[string]int {
	out := map[string]int{}
	for _, nd := range n.Nodes {
		out[nd.Kind.String()]++
	}
	return out
}

// CellCount is the number of logic cells (everything except constants,
// inputs and register outputs).
func (n *Netlist) CellCount() int {
	c := 0
	for _, nd := range n.Nodes {
		switch nd.Kind {
		case OpConst, OpInput, OpReg:
		default:
			c++
		}
	}
	return c
}

// FormatStats renders a synthesis report.
func (n *Netlist) FormatStats() string {
	st := n.Stats()
	var kinds []string
	for k := range st {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := fmt.Sprintf("module %s: %d nodes, %d logic cells, %d registers\n",
		n.Top, len(n.Nodes), n.CellCount(), len(n.Regs))
	for _, k := range kinds {
		out += fmt.Sprintf("  %-8s %d\n", k, st[k])
	}
	return out
}

// Synthesize builds a netlist for module top in f. Instances and memories
// are not supported.
func Synthesize(f *verilog.SourceFile, top string) (*Netlist, error) {
	m := f.Module(top)
	if m == nil {
		return nil, fmt.Errorf("synth: module %q not found", top)
	}
	b := &builder{
		nl:  &Netlist{Top: top, Inputs: map[string]int{}, Outputs: map[string]int{}},
		mod: m,
		env: map[string]int{},
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	return b.nl, nil
}

// SynthesizeSource parses src and synthesizes top.
func SynthesizeSource(src, top string) (*Netlist, error) {
	f, errs := verilog.Parse(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("synth: %s", errs[0].Error())
	}
	return Synthesize(f, top)
}

type builder struct {
	nl     *Netlist
	mod    *verilog.Module
	params verilog.ConstEnv
	widths map[string]int
	env    map[string]int // signal -> node currently driving it
	isReg  map[string]bool
}

func (b *builder) run() error {
	env, err := verilog.ModuleParams(b.mod)
	if err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	b.params = env
	b.widths = map[string]int{}
	b.isReg = map[string]bool{}

	// Declare widths for ports and nets; reject memories and instances.
	declare := func(name string, rng *verilog.Range) error {
		w, err := verilog.RangeWidth(rng, env)
		if err != nil {
			return fmt.Errorf("synth: %s: %w", name, err)
		}
		b.widths[name] = w
		return nil
	}
	for _, p := range b.mod.Ports {
		if err := declare(p.Name, p.Range); err != nil {
			return err
		}
	}
	seqTargets := map[string]bool{}
	for _, it := range b.mod.Items {
		switch v := it.(type) {
		case *verilog.Instance:
			return fmt.Errorf("synth: module instances unsupported (%s)", v.InstName)
		case *verilog.NetDecl:
			rng := v.Range
			if v.Kind == verilog.KindInteger {
				rng = &verilog.Range{MSB: &verilog.Number{Value: 31, Text: "31"}, LSB: &verilog.Number{Value: 0, Text: "0"}}
			}
			for _, n := range v.Names {
				if n.ArrayRange != nil {
					return fmt.Errorf("synth: memory %q unsupported", n.Name)
				}
				if err := declare(n.Name, rng); err != nil {
					return err
				}
			}
		case *verilog.AlwaysBlock:
			if v.Sens != nil && v.Sens.Edged() {
				verilog.WalkStmt(v.Body, func(s verilog.Stmt) bool {
					if a, ok := s.(*verilog.Assign); ok {
						for _, t := range verilog.LHSTargets(a.LHS) {
							seqTargets[t] = true
						}
					}
					return true
				})
			}
		}
	}

	// Inputs.
	for _, p := range b.mod.Ports {
		if p.Dir == verilog.DirInput {
			id := b.nl.add(&Node{Kind: OpInput, Width: b.widths[p.Name], Name: p.Name})
			b.nl.Inputs[p.Name] = id
			b.env[p.Name] = id
		}
	}
	// Registers (targets of edge-triggered blocks).
	var regNames []string
	for name := range seqTargets {
		regNames = append(regNames, name)
	}
	sort.Strings(regNames)
	for _, name := range regNames {
		w, ok := b.widths[name]
		if !ok {
			return fmt.Errorf("synth: sequential target %q not declared", name)
		}
		id := b.nl.add(&Node{Kind: OpReg, Width: w, Name: name})
		b.env[name] = id
		b.isReg[name] = true
		b.nl.Regs = append(b.nl.Regs, RegInfo{Name: name, Node: id, Next: -1})
	}

	// Resolve combinational items to convergence.
	type combItem struct {
		item    verilog.Item
		targets []string
		reads   []string
	}
	var pending []*combItem
	var seqBlocks []*verilog.AlwaysBlock
	for _, it := range b.mod.Items {
		switch v := it.(type) {
		case *verilog.ContAssign:
			pending = append(pending, &combItem{
				item:    v,
				targets: verilog.LHSTargets(v.LHS),
				reads:   verilog.ExprIdents(v.RHS),
			})
		case *verilog.AlwaysBlock:
			if v.Sens != nil && v.Sens.Edged() {
				seqBlocks = append(seqBlocks, v)
				continue
			}
			ci := &combItem{item: v}
			verilog.WalkStmt(v.Body, func(s verilog.Stmt) bool {
				switch st := s.(type) {
				case *verilog.Assign:
					ci.targets = append(ci.targets, verilog.LHSTargets(st.LHS)...)
					ci.reads = append(ci.reads, verilog.ExprIdents(st.RHS)...)
				case *verilog.If:
					ci.reads = append(ci.reads, verilog.ExprIdents(st.Cond)...)
				case *verilog.Case:
					ci.reads = append(ci.reads, verilog.ExprIdents(st.Expr)...)
				case *verilog.For:
					ci.reads = append(ci.reads, verilog.ExprIdents(st.Cond)...)
					// Loop induction variables are local to the block.
					if st.Init != nil {
						ci.targets = append(ci.targets, verilog.LHSTargets(st.Init.LHS)...)
					}
				}
				return true
			})
			pending = append(pending, ci)
		case *verilog.InitialBlock:
			// Initial blocks set register init values.
			verilog.WalkStmt(v.Body, func(s verilog.Stmt) bool {
				if a, ok := s.(*verilog.Assign); ok {
					if id, iok := a.LHS.(*verilog.Ident); iok {
						if val, cerr := verilog.EvalConst(a.RHS, b.params); cerr == nil {
							for i := range b.nl.Regs {
								if b.nl.Regs[i].Name == id.Name {
									b.nl.Regs[i].Init = uint64(val)
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	for len(pending) > 0 {
		progressed := false
		var next []*combItem
		for _, ci := range pending {
			ready := true
			for _, r := range ci.reads {
				if _, isParam := b.params[r]; isParam {
					continue
				}
				if _, ok := b.env[r]; !ok {
					// Self-reads of the item's own targets are fine for
					// read-modify style comb blocks that assign first.
					if !contains(ci.targets, r) {
						ready = false
						break
					}
				}
			}
			if !ready {
				next = append(next, ci)
				continue
			}
			if err := b.synthCombItem(ci.item); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			var names []string
			for _, ci := range next {
				names = append(names, ci.targets...)
			}
			return fmt.Errorf("synth: combinational cycle or undriven dependency around %v", names)
		}
		pending = next
	}

	// Sequential next-state functions.
	for _, ab := range seqBlocks {
		if err := b.synthSeqBlock(ab); err != nil {
			return err
		}
	}
	for i := range b.nl.Regs {
		if b.nl.Regs[i].Next < 0 {
			// Register never assigned (possible on recovered ASTs): holds.
			b.nl.Regs[i].Next = b.nl.Regs[i].Node
		}
	}

	// Outputs.
	for _, p := range b.mod.Ports {
		if p.Dir != verilog.DirOutput {
			continue
		}
		id, ok := b.env[p.Name]
		if !ok {
			return fmt.Errorf("synth: output %q is undriven", p.Name)
		}
		b.nl.Outputs[p.Name] = id
	}
	return nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
