// Package rtlgen is a seeded, deterministic generator of random
// synthesizable Verilog designs, in the Csmith tradition: it grows scenario
// coverage of the simulator without growing hand-written oracles, using the
// event-driven engine as a free golden model over an unbounded design
// space. Designs are built as verilog ASTs (never as text), so every
// generated source parses and elaborates by construction, and the generator
// is deliberately biased to land designs on both scheduling paths of the
// compiled backend: the levelized straight-line sweep, and the
// event-scheduler fallback (gated clocks, explicit sensitivity lists, NBAs
// in combinational code, latch-style self reads — exactly the constructs
// the clean-design analysis in internal/sim/compile.go must detect).
//
// The package also hosts the differential oracles (diff.go) shared by the
// TestSweep seed sweep, the native fuzz targets (fuzz_test.go) and the
// cmd/rtlgen CLI.
package rtlgen

import (
	"fmt"
	"math/rand"

	"uvllm/internal/verilog"
)

// Flavor names the scheduling path a generated design is constructed to
// exercise.
type Flavor string

// Flavors. Levelized designs are clean by construction; the others each
// inject one construct that must route the compiled backend onto the
// event-scheduler fallback.
const (
	FlavorLevelized    Flavor = "levelized"
	FlavorGatedClock   Flavor = "gated-clock"
	FlavorExplicitSens Flavor = "explicit-sens-list"
	FlavorCombNBA      Flavor = "comb-nba"
	FlavorSelfRead     Flavor = "comb-self-read"
)

// fallbackFlavors lists the event-fallback flavors in selection order.
var fallbackFlavors = []Flavor{FlavorGatedClock, FlavorExplicitSens, FlavorCombNBA, FlavorSelfRead}

// WantsFallback reports whether the flavor is constructed to trip the
// clean-design analysis.
func (fl Flavor) WantsFallback() bool { return fl != FlavorLevelized }

// Design is one generated DUT.
type Design struct {
	Seed   int64
	Name   string // == Top
	Top    string
	Clock  string // always "clk"
	Source string // canonical (printer-formatted) Verilog
	Flavor Flavor
}

// The size and shape of generated designs, chosen so a design elaborates
// and simulates in well under a millisecond while still mixing every
// supported construct class.
const (
	maxInputs    = 4    // extra data inputs beyond clk/rst_n (>=1)
	maxWires     = 7    // combinational assign network size
	maxRegs      = 4    // sequential state registers
	maxCombRegs  = 2    // @(*) always-block targets
	maxOutputs   = 3    // top-level outputs
	maxExprDepth = 3    // expression tree depth
	memProb      = 0.45 // probability of a memory (write port + comb read)
	resetProb    = 0.6  // probability of an active-low rst_n
	fallbackBias = 0.35 // probability of injecting an event-fallback construct
)

// Generate builds the design for one seed. The same seed always yields
// byte-identical source.
func Generate(seed int64) *Design {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	name := fmt.Sprintf("gen_%x", uint64(seed))
	mod := g.module(name)
	return &Design{
		Seed:   seed,
		Name:   name,
		Top:    name,
		Clock:  "clk",
		Source: verilog.PrintModule(mod),
		Flavor: g.flavor,
	}
}

// sig is one readable signal in the generator's pool.
type sig struct {
	name  string
	width int
}

type gen struct {
	rng    *rand.Rand
	flavor Flavor

	pool  []sig // signals usable as expression leaves (never clk)
	names int   // fresh-name counter
}

func (g *gen) fresh(prefix string) string {
	g.names++
	return fmt.Sprintf("%s%d", prefix, g.names)
}

func (g *gen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return g.rng.Intn(n)
}

// width draws a signal width biased toward narrow vectors, with occasional
// wide (up to 64-bit) ones to stress the masking boundaries.
func (g *gen) width() int {
	switch g.intn(10) {
	case 0, 1:
		return 1
	case 2, 3, 4:
		return 2 + g.intn(7) // 2..8
	case 5, 6, 7:
		return 8 + g.intn(17) // 8..24
	case 8:
		return 32
	default:
		return 33 + g.intn(32) // 33..64
	}
}

func rng(w int) *verilog.Range {
	return &verilog.Range{MSB: num64(uint64(w-1), 0), LSB: num64(0, 0)}
}

// num64 builds an unsized decimal literal (width 0) or a sized hex literal.
func num64(v uint64, width int) *verilog.Number {
	if width <= 0 {
		return &verilog.Number{Text: fmt.Sprintf("%d", v), Value: v}
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	return &verilog.Number{Text: fmt.Sprintf("%d'h%x", width, v), Width: width, Value: v}
}

func ident(name string) *verilog.Ident { return &verilog.Ident{Name: name} }

// module generates the full module body.
func (g *gen) module(name string) *verilog.Module {
	m := &verilog.Module{Name: name}

	// Decide the scheduling flavor up front so the seed fully determines it.
	g.flavor = FlavorLevelized
	if g.rng.Float64() < fallbackBias {
		g.flavor = fallbackFlavors[g.intn(len(fallbackFlavors))]
	}
	hasReset := g.rng.Float64() < resetProb

	// Ports: clk, optional rst_n, then data inputs.
	m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirInput, Name: "clk"})
	if hasReset {
		m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirInput, Name: "rst_n"})
	}
	nIn := 2 + g.intn(maxInputs)
	for i := 0; i < nIn; i++ {
		w := g.width()
		p := &verilog.Port{Dir: verilog.DirInput, Name: fmt.Sprintf("in%d", i)}
		if w > 1 {
			p.Range = rng(w)
		}
		m.Ports = append(m.Ports, p)
		g.pool = append(g.pool, sig{p.Name, w})
	}

	// Combinational wire network: each wire reads only earlier signals, so
	// the network is acyclic and single-driver by construction.
	nW := 2 + g.intn(maxWires)
	for i := 0; i < nW; i++ {
		w := g.width()
		nm := g.fresh("w")
		m.Items = append(m.Items,
			&verilog.NetDecl{Kind: verilog.KindWire, Range: vecRange(w), Names: []verilog.DeclName{{Name: nm}}},
			&verilog.ContAssign{LHS: ident(nm), RHS: g.expr(maxExprDepth, w)},
		)
		g.pool = append(g.pool, sig{nm, w})
	}

	// Optional memory: sequential write port, combinational read port.
	if g.rng.Float64() < memProb {
		g.memory(m, hasReset)
	}

	// Sequential state: registers updated with NBAs under posedge clk.
	g.sequential(m, hasReset)

	// Combinational always blocks: full default assignment first, then
	// if/case refinement — definitely assigned, so they levelize.
	nC := g.intn(maxCombRegs + 1)
	for i := 0; i < nC; i++ {
		g.combAlways(m)
	}

	// The flavor construct, inserted before outputs so they can observe it.
	switch g.flavor {
	case FlavorGatedClock:
		g.gatedClock(m)
	case FlavorExplicitSens:
		g.explicitSens(m)
	case FlavorCombNBA:
		g.combNBA(m)
	case FlavorSelfRead:
		g.selfRead(m)
	}

	// Outputs: wires assigned from the final signal pool.
	nOut := 1 + g.intn(maxOutputs)
	for i := 0; i < nOut; i++ {
		w := g.width()
		p := &verilog.Port{Dir: verilog.DirOutput, Name: fmt.Sprintf("out%d", i)}
		if w > 1 {
			p.Range = rng(w)
		}
		m.Ports = append(m.Ports, p)
		m.Items = append(m.Items, &verilog.ContAssign{LHS: ident(p.Name), RHS: g.expr(maxExprDepth, w)})
	}

	// Checksum output: XOR-reduce every pool signal so the whole design is
	// observable at the ports. Without it most internal signals are dead
	// code and injected faults (the third oracle) rarely reach an output.
	var chk verilog.Expr
	for _, s := range g.pool {
		red := verilog.Expr(&verilog.Unary{Op: "^", X: ident(s.name)})
		if chk == nil {
			chk = red
		} else {
			chk = &verilog.Binary{Op: "^", X: chk, Y: red}
		}
	}
	m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirOutput, Name: "out_chk"})
	m.Items = append(m.Items, &verilog.ContAssign{LHS: ident("out_chk"), RHS: chk})
	return m
}

func vecRange(w int) *verilog.Range {
	if w <= 1 {
		return nil
	}
	return rng(w)
}

// memory emits `reg [w-1:0] mem [0:d-1]`, a guarded sequential write port
// and a combinational read wire.
func (g *gen) memory(m *verilog.Module, hasReset bool) {
	w := 4 + g.intn(13)     // 4..16
	depth := 4 << g.intn(4) // 4, 8, 16, 32
	abits := bitsFor(depth) // address width
	nm := g.fresh("mem")
	m.Items = append(m.Items, &verilog.NetDecl{
		Kind: verilog.KindReg, Range: rng(w),
		Names: []verilog.DeclName{{Name: nm, ArrayRange: &verilog.Range{MSB: num64(0, 0), LSB: num64(uint64(depth-1), 0)}}},
	})
	waddr := g.expr(2, abits)
	wdata := g.expr(2, w)
	wen := g.expr(2, 1)
	body := &verilog.Block{Stmts: []verilog.Stmt{
		&verilog.If{Cond: wen, Then: &verilog.Assign{
			LHS: &verilog.Index{X: ident(nm), Index: waddr}, RHS: wdata,
		}},
	}}
	m.Items = append(m.Items, &verilog.AlwaysBlock{
		Sens: &verilog.SensList{Items: []verilog.SensItem{{Edge: verilog.EdgePos, Signal: "clk"}}},
		Body: body,
	})
	_ = hasReset // memory contents are never reset (matches dataset idiom)

	rd := g.fresh("rd")
	m.Items = append(m.Items,
		&verilog.NetDecl{Kind: verilog.KindWire, Range: rng(w), Names: []verilog.DeclName{{Name: rd}}},
		&verilog.ContAssign{LHS: ident(rd), RHS: &verilog.Index{X: ident(nm), Index: g.expr(2, abits)}},
	)
	g.pool = append(g.pool, sig{rd, w})
}

func bitsFor(depth int) int {
	b := 1
	for (1 << uint(b)) < depth {
		b++
	}
	return b
}

// sequential emits one or two posedge-clk always blocks updating fresh
// registers with NBAs. Registers may read themselves (accumulator
// feedback), which is legal state, not a combinational hazard.
func (g *gen) sequential(m *verilog.Module, hasReset bool) {
	nR := 1 + g.intn(maxRegs)
	type regInfo struct {
		name  string
		width int
	}
	var regs []regInfo
	for i := 0; i < nR; i++ {
		w := g.width()
		nm := g.fresh("r")
		m.Items = append(m.Items, &verilog.NetDecl{Kind: verilog.KindReg, Range: vecRange(w), Names: []verilog.DeclName{{Name: nm}}})
		regs = append(regs, regInfo{nm, w})
	}
	// State registers join the pool before their updates are generated, so
	// feedback (r <= r + x) and cross-register reads are possible.
	for _, r := range regs {
		g.pool = append(g.pool, sig{r.name, r.width})
	}

	// Split the registers over one or two blocks.
	nBlocks := 1
	if len(regs) > 2 && g.intn(2) == 1 {
		nBlocks = 2
	}
	per := (len(regs) + nBlocks - 1) / nBlocks
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*per, (b+1)*per
		if hi > len(regs) {
			hi = len(regs)
		}
		if lo >= hi {
			continue
		}
		var updates []verilog.Stmt
		for _, r := range regs[lo:hi] {
			up := verilog.Stmt(&verilog.Assign{LHS: ident(r.name), RHS: g.expr(maxExprDepth, r.width)})
			// Sometimes guard the update (enable-style) or branch it.
			switch g.intn(4) {
			case 0:
				up = &verilog.If{Cond: g.expr(2, 1), Then: up}
			case 1:
				up = &verilog.If{
					Cond: g.expr(2, 1),
					Then: up,
					Else: &verilog.Assign{LHS: ident(r.name), RHS: g.expr(2, r.width)},
				}
			}
			updates = append(updates, up)
		}
		sens := &verilog.SensList{Items: []verilog.SensItem{{Edge: verilog.EdgePos, Signal: "clk"}}}
		body := verilog.Stmt(&verilog.Block{Stmts: updates})
		if hasReset && g.intn(3) != 0 {
			sens.Items = append(sens.Items, verilog.SensItem{Edge: verilog.EdgeNeg, Signal: "rst_n"})
			var resets []verilog.Stmt
			for _, r := range regs[lo:hi] {
				resets = append(resets, &verilog.Assign{LHS: ident(r.name), RHS: num64(uint64(g.intn(4)), r.width)})
			}
			body = &verilog.If{
				Cond: &verilog.Unary{Op: "!", X: ident("rst_n")},
				Then: &verilog.Block{Stmts: resets},
				Else: body,
			}
		}
		m.Items = append(m.Items, &verilog.AlwaysBlock{Sens: sens, Body: nbaize(body)})
	}
}

// nbaize converts every assignment in a statement tree to non-blocking,
// the legal form for the sequential blocks the generator emits.
func nbaize(st verilog.Stmt) verilog.Stmt {
	verilog.WalkStmt(st, func(s verilog.Stmt) bool {
		if a, ok := s.(*verilog.Assign); ok {
			a.Blocking = false
		}
		return true
	})
	return st
}

// combAlways emits a definitely-assigned @(*) block: default assignment
// first, then an if or case refinement — the clean shape that levelizes.
func (g *gen) combAlways(m *verilog.Module) {
	w := g.width()
	nm := g.fresh("c")
	m.Items = append(m.Items, &verilog.NetDecl{Kind: verilog.KindReg, Range: vecRange(w), Names: []verilog.DeclName{{Name: nm}}})

	stmts := []verilog.Stmt{
		&verilog.Assign{LHS: ident(nm), RHS: g.expr(2, w), Blocking: true},
	}
	if g.intn(2) == 0 {
		stmts = append(stmts, &verilog.If{
			Cond: g.expr(2, 1),
			Then: &verilog.Assign{LHS: ident(nm), RHS: g.expr(maxExprDepth, w), Blocking: true},
		})
	} else {
		selW := 2
		var items []verilog.CaseItem
		nArms := 2 + g.intn(2)
		for a := 0; a < nArms; a++ {
			items = append(items, verilog.CaseItem{
				Exprs: []verilog.Expr{num64(uint64(a), selW)},
				Body:  &verilog.Assign{LHS: ident(nm), RHS: g.expr(2, w), Blocking: true},
			})
		}
		items = append(items, verilog.CaseItem{ // default
			Body: &verilog.Assign{LHS: ident(nm), RHS: g.expr(2, w), Blocking: true},
		})
		stmts = append(stmts, &verilog.Case{Kind: "case", Expr: g.expr(2, selW), Items: items})
	}
	m.Items = append(m.Items, &verilog.AlwaysBlock{
		Sens: &verilog.SensList{Star: true},
		Body: &verilog.Block{Stmts: stmts},
	})
	g.pool = append(g.pool, sig{nm, w})
}

// ---------------------------------------------------------------------------
// Event-fallback constructs. Each must trip exactly one clause of the
// clean-design analysis so the compiled backend keeps the event scheduler.

// gatedClock derives a clock combinationally and clocks a register off it:
// "edge trigger on combinationally driven signal (glitch semantics)".
func (g *gen) gatedClock(m *verilog.Module) {
	en := g.expr(2, 1)
	q := g.fresh("gq")
	w := 1 + g.intn(8)
	m.Items = append(m.Items,
		&verilog.NetDecl{Kind: verilog.KindWire, Names: []verilog.DeclName{{Name: "gclk"}}},
		&verilog.ContAssign{LHS: ident("gclk"), RHS: &verilog.Binary{Op: "&", X: ident("clk"), Y: en}},
		&verilog.NetDecl{Kind: verilog.KindReg, Range: vecRange(w), Names: []verilog.DeclName{{Name: q}}},
		&verilog.AlwaysBlock{
			Sens: &verilog.SensList{Items: []verilog.SensItem{{Edge: verilog.EdgePos, Signal: "gclk"}}},
			Body: &verilog.Assign{LHS: ident(q), RHS: g.expr(2, w)},
		},
	)
	g.pool = append(g.pool, sig{q, w})
}

// explicitSens emits an always block with a deliberately incomplete
// level-sensitive list: "explicit level-sensitive list".
func (g *gen) explicitSens(m *verilog.Module) {
	if len(g.pool) < 2 {
		return
	}
	a := g.pool[g.intn(len(g.pool))]
	b := g.pool[g.intn(len(g.pool))]
	y := g.fresh("es")
	w := g.width()
	m.Items = append(m.Items,
		&verilog.NetDecl{Kind: verilog.KindReg, Range: vecRange(w), Names: []verilog.DeclName{{Name: y}}},
		&verilog.AlwaysBlock{
			Sens: &verilog.SensList{Items: []verilog.SensItem{{Signal: a.name}, {Signal: b.name}}},
			// The RHS may read signals missing from the list — that staleness
			// is the point; the event queue must emulate it on both backends.
			Body: &verilog.Assign{LHS: ident(y), RHS: g.expr(maxExprDepth, w), Blocking: true},
		},
	)
	g.pool = append(g.pool, sig{y, w})
}

// combNBA emits a non-blocking assignment inside an @(*) block:
// "non-blocking assignment in combinational process".
func (g *gen) combNBA(m *verilog.Module) {
	y := g.fresh("nb")
	w := g.width()
	m.Items = append(m.Items,
		&verilog.NetDecl{Kind: verilog.KindReg, Range: vecRange(w), Names: []verilog.DeclName{{Name: y}}},
		&verilog.AlwaysBlock{
			Sens: &verilog.SensList{Star: true},
			Body: &verilog.Assign{LHS: ident(y), RHS: g.expr(maxExprDepth, w), Blocking: false},
		},
	)
	g.pool = append(g.pool, sig{y, w})
}

// selfRead emits an @(*) block whose target reads its own pre-execution
// state ("y = y ^ expr" with no prior full write): "combinational process
// reads its own pre-execution state". Under event scheduling the block runs
// once per external trigger (never re-triggering on its own write), so the
// accumulation count is scheduler-defined — exactly what the levelized
// sweep cannot reproduce and must refuse.
func (g *gen) selfRead(m *verilog.Module) {
	y := g.fresh("sr")
	w := g.width()
	m.Items = append(m.Items,
		&verilog.NetDecl{Kind: verilog.KindReg, Range: vecRange(w), Names: []verilog.DeclName{{Name: y}}},
		&verilog.AlwaysBlock{
			Sens: &verilog.SensList{Star: true},
			Body: &verilog.Assign{
				LHS:      ident(y),
				RHS:      &verilog.Binary{Op: "^", X: ident(y), Y: g.expr(2, w)},
				Blocking: true,
			},
		},
	)
	g.pool = append(g.pool, sig{y, w})
}
