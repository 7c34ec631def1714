package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/rtlgen"
	"uvllm/internal/sim"
)

// synthesizable lists the dataset modules within the synthesizer's scope
// (single module, no memories).
func synthesizable() []*dataset.Module {
	var out []*dataset.Module
	for _, m := range dataset.All() {
		if strings.Count(m.Source, "module ") > 1 {
			continue // hierarchical
		}
		if strings.Contains(m.Source, "] mem [") {
			continue // memory
		}
		out = append(out, m)
	}
	return out
}

func TestSynthesizableCount(t *testing.T) {
	n := len(synthesizable())
	if n < 20 {
		t.Fatalf("only %d of 27 modules synthesizable; scope regressed", n)
	}
	t.Logf("%d of 27 modules in synthesis scope", n)
}

func TestSynthesizeCombAdder(t *testing.T) {
	nl, err := SynthesizeSource(`module m(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
assign {cout, sum} = a + b + {7'd0, cin};
endmodule`, "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Regs) != 0 {
		t.Errorf("combinational design has %d regs", len(nl.Regs))
	}
	outs, err := nl.EvalComb(map[string]uint64{"a": 200, "b": 100, "cin": 1})
	if err != nil {
		t.Fatal(err)
	}
	if outs["sum"] != (301&0xFF) || outs["cout"] != 1 {
		t.Errorf("outs = %v", outs)
	}
}

func TestSynthesizeSequentialCounter(t *testing.T) {
	nl, err := SynthesizeSource(`module c(input clk, input rst_n, input en, output reg [7:0] count);
always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
        count <= 8'd0;
    end else if (en) begin
        count <= count + 8'd1;
    end
end
endmodule`, "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Regs) != 1 || nl.Regs[0].Name != "count" {
		t.Fatalf("regs = %+v", nl.Regs)
	}
	st := nl.InitialState()
	var outs map[string]uint64
	in := map[string]uint64{"rst_n": 1, "en": 1}
	for i := 0; i < 5; i++ {
		var err error
		outs, st, err = nl.Step(st, in)
		if err != nil {
			t.Fatal(err)
		}
	}
	if outs["count"] != 5 {
		t.Errorf("count = %d, want 5", outs["count"])
	}
	// Hold when disabled.
	outs, st, _ = nl.Step(st, map[string]uint64{"rst_n": 1, "en": 0})
	if outs["count"] != 5 {
		t.Errorf("count after hold = %d", outs["count"])
	}
	// Reset.
	outs, _, _ = nl.Step(st, map[string]uint64{"rst_n": 0, "en": 1})
	if outs["count"] != 0 {
		t.Errorf("count after reset = %d", outs["count"])
	}
}

func TestSynthesizeRejectsUnsupported(t *testing.T) {
	if _, err := SynthesizeSource(`module m(input clk);
reg [7:0] mem [0:3];
always @(posedge clk) begin
    mem[0] <= 8'd1;
end
endmodule`, "m"); err == nil {
		t.Error("memory accepted")
	}
	if _, err := SynthesizeSource(`module s(input a, output b);
assign b = a;
endmodule
module t(input a, output b);
s u (.a(a), .b(b));
endmodule`, "t"); err == nil {
		t.Error("instance accepted")
	}
	if _, err := SynthesizeSource("module m(input a, output w); assign w = a\nendmodule", "m"); err == nil {
		t.Error("syntax error accepted")
	}
}

// TestEquivalenceAgainstSimulator is the sequential-equivalence smoke
// check: for every in-scope benchmark module, the synthesized netlist and
// the event-driven simulator must agree cycle by cycle on random stimulus.
func TestEquivalenceAgainstSimulator(t *testing.T) {
	for _, m := range synthesizable() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			nl, err := SynthesizeSource(m.Source, m.Top)
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			checkEquivalence(t, nl, m, 250)
		})
	}
}

// TestEquivalenceAfterOptimization re-checks after the optimization
// passes: transformations must be semantics-preserving.
func TestEquivalenceAfterOptimization(t *testing.T) {
	for _, m := range synthesizable() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			nl, err := SynthesizeSource(m.Source, m.Top)
			if err != nil {
				t.Fatal(err)
			}
			before := nl.CellCount()
			saved := nl.Optimize()
			if saved < 0 {
				t.Errorf("optimization grew the netlist by %d", -saved)
			}
			t.Logf("%s: %d -> %d cells", m.Name, before, nl.CellCount())
			checkEquivalence(t, nl, m, 250)
		})
	}
}

func checkEquivalence(t *testing.T, nl *Netlist, m *dataset.Module, cycles int) {
	t.Helper()
	s, err := sim.CompileAndNew(m.Source, m.Top)
	if err != nil {
		t.Fatal(err)
	}
	h := sim.NewHarness(s, m.Clock)
	st := nl.InitialState()
	rng := rand.New(rand.NewSource(21))
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]uint64{}
		for _, p := range s.Design().Inputs() {
			if p.Name == m.Clock {
				continue
			}
			in[p.Name] = rng.Uint64() & ((1 << uint(p.Width)) - 1)
		}
		if m.HasReset {
			if cyc < 2 || cyc%89 == 31 {
				in["rst_n"] = 0
			} else {
				in["rst_n"] = 1
			}
		}
		simOut, err := h.Cycle(in)
		if err != nil {
			t.Fatalf("sim cycle %d: %v", cyc, err)
		}
		var nlOut map[string]uint64
		if m.Clock == "" {
			nlOut, err = nl.EvalComb(in)
		} else {
			nlOut, st, err = nl.Step(st, in)
		}
		if err != nil {
			t.Fatalf("netlist cycle %d: %v", cyc, err)
		}
		for name, sv := range simOut {
			if nlOut[name] != sv {
				t.Fatalf("cycle %d: %s = netlist %d vs sim %d (inputs %v)",
					cyc, name, nlOut[name], sv, in)
			}
		}
	}
}

func TestOptimizePasses(t *testing.T) {
	nl, err := SynthesizeSource(`module m(input [7:0] a, output [7:0] y, output [7:0] z);
wire [7:0] t1;
wire [7:0] t2;
assign t1 = 8'd3 + 8'd4;
assign t2 = a + 8'd7;
assign y = t1 + t2;
assign z = a + 8'd7;
endmodule`, "m")
	if err != nil {
		t.Fatal(err)
	}
	folded := nl.ConstFold()
	if folded == 0 {
		t.Error("constant addition not folded")
	}
	merged := nl.CSE()
	if merged == 0 {
		t.Error("duplicate a+7 not merged")
	}
	removed := nl.DCE()
	if removed == 0 {
		t.Error("dead cells not removed")
	}
	outs, err := nl.EvalComb(map[string]uint64{"a": 10})
	if err != nil {
		t.Fatal(err)
	}
	if outs["y"] != 24 || outs["z"] != 17 {
		t.Errorf("post-optimization outputs wrong: %v", outs)
	}
}

func TestFormatStats(t *testing.T) {
	m := dataset.ByName("alu")
	nl, err := SynthesizeSource(m.Source, m.Top)
	if err != nil {
		t.Fatal(err)
	}
	rep := nl.FormatStats()
	if !strings.Contains(rep, "module alu") || !strings.Contains(rep, "logic cells") {
		t.Errorf("report malformed:\n%s", rep)
	}
}

func TestSynthesisDetectsFunctionalFaultViaEquivalence(t *testing.T) {
	// A bit like a formal EC flow: synthesize both golden and faulty
	// netlists and find a distinguishing input.
	m := dataset.ByName("gray_code")
	gold, err := SynthesizeSource(m.Source, m.Top)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := SynthesizeSource(strings.Replace(m.Source, "bin ^ (bin >> 1)", "bin ^ (bin >> 2)", 1), m.Top)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for v := uint64(0); v < 16; v++ {
		g, _ := gold.EvalComb(map[string]uint64{"bin": v})
		b, _ := bad.EvalComb(map[string]uint64{"bin": v})
		if g["gray"] != b["gray"] {
			found = true
			break
		}
	}
	if !found {
		t.Error("no distinguishing input found for a real fault")
	}
}

// TestSynthReplicationBounded checks that a replication count far past
// 64 builds at most 64 copies, the most that reach the concat's low 64
// bits, and that the value is still the replicated one.
func TestSynthReplicationBounded(t *testing.T) {
	src := `module r(input [1:0] a, output [7:0] y); assign y = {1000000000{a}}; endmodule`
	start := time.Now()
	nl, err := SynthesizeSource(src, "r")
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("synthesis took %v, want under 100ms", d)
	}
	out, err := nl.EvalComb(map[string]uint64{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	if out["y"] != 0xaa {
		t.Fatalf("y = %#x, want 0xaa", out["y"])
	}
}

// TestSynthPinned pins the synthesizer's netlists, and with them every
// width decision it makes, over the 27 goldens, the 331 benchmark faults
// and rtlgen seeds 1-300: one line per design (the FormatStats report
// before and after Optimize, or the error text), hashed. The digest was
// recorded before the width rule moved into internal/verilog.
func TestSynthPinned(t *testing.T) {
	const (
		wantDesigns = 658
		wantOK      = 279
		wantDigest  = "8d26f6fe4474b9aaff77998cc3ea06761e7df7c9644ecfc95bfbcf84b4a9f908"
	)
	type design struct{ name, src, top string }
	var ds []design
	for _, m := range dataset.All() {
		ds = append(ds, design{m.Name, m.Source, m.Top})
	}
	for _, f := range faultgen.Benchmark() {
		ds = append(ds, design{f.ID, f.Source, f.Meta().Top})
	}
	for seed := int64(1); seed <= 300; seed++ {
		d := rtlgen.Generate(seed)
		ds = append(ds, design{fmt.Sprintf("rtlgen/%d", seed), d.Source, d.Top})
	}
	h := sha256.New()
	ok := 0
	for _, d := range ds {
		nl, err := SynthesizeSource(d.src, d.top)
		if err != nil {
			fmt.Fprintf(h, "%s: %v\n", d.name, err)
			continue
		}
		ok++
		before := nl.FormatStats()
		nl.Optimize()
		fmt.Fprintf(h, "%s:\n%s%s", d.name, before, nl.FormatStats())
	}
	got := hex.EncodeToString(h.Sum(nil))
	if len(ds) != wantDesigns || ok != wantOK || got != wantDigest {
		t.Fatalf("%d designs, %d synthesized, digest %s; want %d, %d, %s",
			len(ds), ok, got, wantDesigns, wantOK, wantDigest)
	}
}
