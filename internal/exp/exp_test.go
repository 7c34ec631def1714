package exp

import (
	"strings"
	"testing"

	"uvllm/internal/baseline"
	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// testSession is the shared compiled-backend session all shape tests draw
// their cached full-benchmark records from.
func testSession() *Session { return SharedSession(sim.BackendCompiled) }

// The tests in this file assert the qualitative structure of the paper's
// results — who wins, where the gaps are, how the stages split — on the
// cached full-benchmark run. Exact values are recorded in EXPERIMENTS.md;
// here we pin the shape with tolerant bands so the suite stays stable.

func TestHeadlineBands(t *testing.T) {
	h := testSession().ComputeHeadline()
	if h.SyntaxFR < 80 || h.SyntaxFR > 95 {
		t.Errorf("syntax FR %.2f outside band [80,95] (paper 86.99)", h.SyntaxFR)
	}
	if h.FuncFR < 62 || h.FuncFR > 80 {
		t.Errorf("functional FR %.2f outside band [62,80] (paper 71.92)", h.FuncFR)
	}
	if h.OverallFR < 72 || h.OverallFR > 88 {
		t.Errorf("overall FR %.2f outside band [72,88] (paper 79.75)", h.OverallFR)
	}
	if h.Speedup < 5 || h.Speedup > 25 {
		t.Errorf("speedup %.2fx outside band [5,25] (paper 10.42x)", h.Speedup)
	}
	if h.SyntaxHRFRGap > 2 {
		t.Errorf("UVLLM syntax HR-FR gap %.2f, paper reports none", h.SyntaxHRFRGap)
	}
	if h.FuncHRFRGap > 8 {
		t.Errorf("UVLLM functional HR-FR gap %.2f too large (paper 1.4)", h.FuncHRFRGap)
	}
	if h.MeanCoverage < 80 {
		t.Errorf("coverage %.1f%% too low for the high-coverage claim", h.MeanCoverage)
	}
}

func TestFig5Shape(t *testing.T) {
	rows := Fig5(testSession().Records())
	if len(rows) != 6 {
		t.Fatalf("Fig5 has %d rows, want 5 categories + average", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Category != "Average" {
		t.Fatal("last row must be the average")
	}
	// UVLLM wins every syntax category (paper Result 1).
	for _, r := range rows {
		if r.UVLLM.N == 0 {
			t.Errorf("category %q has no instances", r.Category)
			continue
		}
		if r.UVLLM.FR < r.MEIC.FR {
			t.Errorf("%s: UVLLM %.1f < MEIC %.1f", r.Category, r.UVLLM.FR, r.MEIC.FR)
		}
		if r.UVLLM.FR < r.Raw.FR {
			t.Errorf("%s: UVLLM %.1f < raw GPT %.1f", r.Category, r.UVLLM.FR, r.Raw.FR)
		}
		// UVLLM shows no HR-FR deviation on syntax (paper Result 2).
		if r.UVLLM.HR != r.UVLLM.FR {
			t.Errorf("%s: UVLLM HR %.1f != FR %.1f on syntax", r.Category, r.UVLLM.HR, r.UVLLM.FR)
		}
	}
	if avg.MEIC.FR <= avg.Raw.FR {
		t.Errorf("MEIC average %.1f should beat raw GPT %.1f", avg.MEIC.FR, avg.Raw.FR)
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6(testSession().Records())
	if len(rows) != 5 {
		t.Fatalf("Fig6 has %d rows, want 4 categories + average", len(rows))
	}
	avg := rows[len(rows)-1]
	// UVLLM leads every method on average and is never strictly below any
	// method per category (a tie is tolerated on one cell).
	below := 0
	for _, r := range rows[:4] {
		for name, fr := range map[string]float64{
			"MEIC": r.MEIC.FR, "raw": r.Raw.FR, "Strider": r.Strider.FR, "RTLrepair": r.RTLRepair.FR,
		} {
			if r.UVLLM.FR < fr {
				below++
				t.Logf("note: %s beats UVLLM on %s (%.1f vs %.1f)", name, r.Category, fr, r.UVLLM.FR)
			}
		}
	}
	if below > 1 {
		t.Errorf("UVLLM strictly below a baseline in %d category cells", below)
	}
	for name, fr := range map[string]float64{
		"MEIC": avg.MEIC.FR, "raw": avg.Raw.FR, "Strider": avg.Strider.FR, "RTLrepair": avg.RTLRepair.FR,
	} {
		if avg.UVLLM.FR <= fr {
			t.Errorf("average: UVLLM %.1f not above %s %.1f", avg.UVLLM.FR, name, fr)
		}
	}
	// Baselines overfit on functional errors: MEIC's HR-FR deviation must
	// clearly exceed UVLLM's (paper Result 2).
	uvGap := avg.UVLLM.HR - avg.UVLLM.FR
	meicGap := avg.MEIC.HR - avg.MEIC.FR
	if meicGap <= uvGap {
		t.Errorf("MEIC HR-FR gap %.1f not above UVLLM's %.1f", meicGap, uvGap)
	}
	// RTLrepair is the best template tool on bitwidth (paper Result 1).
	for _, r := range rows[:4] {
		if r.Category == "Incorrect bitwidth" && r.RTLRepair.FR < r.Strider.FR {
			t.Errorf("RTLrepair %.1f below Strider %.1f on its specialty", r.RTLRepair.FR, r.Strider.FR)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows := Fig7(testSession().Records())
	if len(rows) != 27 {
		t.Fatalf("Fig7 has %d modules, want 27", len(rows))
	}
	crosses, cells := 0, 0
	var synSimple, synFSM, funcSimple, funcFSM []float64
	for _, r := range rows {
		for _, c := range faultgen.Classes() {
			cells++
			if !r.Cells[c].Applicable {
				crosses++
			}
		}
		m := dataset.ByName(r.Module)
		if m.IsFSM {
			synFSM = append(synFSM, r.Syntax.FR)
			funcFSM = append(funcFSM, r.Function.FR)
		} else if m.Complexity == 1 {
			synSimple = append(synSimple, r.Syntax.FR)
			funcSimple = append(funcSimple, r.Function.FR)
		}
		// Syntax FR >= functional FR per module type on the whole
		// benchmark (paper Result 3) — check at the aggregate below.
	}
	if crosses == 0 {
		t.Error("heat map has no x cells; paper's Fig. 7 has several")
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Simple modules beat FSMs on functional repairs (paper Result 3:
	// counters ~95%, FSMs ~32%).
	if mean(funcSimple) <= mean(funcFSM) {
		t.Errorf("functional FR: simple %.2f not above FSM %.2f", mean(funcSimple), mean(funcFSM))
	}
	// Syntax consistently above functional.
	if mean(synFSM) <= mean(funcFSM) {
		t.Errorf("FSM: syntax %.2f not above functional %.2f", mean(synFSM), mean(funcFSM))
	}
	out := FormatFig7(rows)
	if !strings.Contains(out, "x") {
		t.Error("formatted heat map missing x marks")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(testSession().Records())
	if len(rows) != 11 {
		t.Fatalf("Table2 has %d rows, want 8 groups + 3 aggregates", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Group] = r
	}
	syn, fn, all := byName["Syntax"], byName["Function"], byName["Overall"]
	// Pre-processing dominates syntax repair; MS mode dominates functional
	// (paper Result 4).
	if !(syn.PreFR > syn.MSFR && syn.MSFR > syn.SLFR) {
		t.Errorf("syntax stage ordering wrong: pre %.1f ms %.1f sl %.1f", syn.PreFR, syn.MSFR, syn.SLFR)
	}
	if !(fn.MSFR > fn.PreFR && fn.MSFR > fn.SLFR) {
		t.Errorf("functional stage ordering wrong: pre %.1f ms %.1f sl %.1f", fn.PreFR, fn.MSFR, fn.SLFR)
	}
	// Stage FRs sum to the total.
	for _, r := range []Table2Row{syn, fn, all} {
		if diff := r.PreFR + r.MSFR + r.SLFR - r.FR; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: stage FRs sum %.2f != total %.2f", r.Group, r.PreFR+r.MSFR+r.SLFR, r.FR)
		}
		if r.T <= 0 || r.MEICT <= 0 {
			t.Errorf("%s: missing time accounting", r.Group)
		}
	}
	// UVLLM beats MEIC in FR and speed everywhere (paper Result 5).
	for _, r := range rows {
		if r.N == 0 {
			continue
		}
		if r.FR < r.MEICFR {
			t.Errorf("%s: UVLLM FR %.1f below MEIC %.1f", r.Group, r.FR, r.MEICFR)
		}
		if r.Speedup < 1 {
			t.Errorf("%s: UVLLM slower than MEIC (%.2fx)", r.Group, r.Speedup)
		}
	}
	// Pre-processing is cheaper than MS-mode repair for functional errors
	// (paper Result 4's efficiency note).
	if fn.PreT >= fn.MST {
		t.Errorf("functional: preproc time %.1f not below MS time %.1f", fn.PreT, fn.MST)
	}
}

func TestTable3Shape(t *testing.T) {
	rows := testSession().Table3()
	if len(rows) != 2 {
		t.Fatalf("Table3 has %d rows", len(rows))
	}
	pair, comp := rows[0], rows[1]
	// Pair mode is more accurate and faster (paper Table III).
	if pair.SynFR <= comp.SynFR {
		t.Errorf("pair syntax FR %.1f not above complete %.1f", pair.SynFR, comp.SynFR)
	}
	if pair.FuncFR <= comp.FuncFR {
		t.Errorf("pair functional FR %.1f not above complete %.1f", pair.FuncFR, comp.FuncFR)
	}
	if pair.SynT >= comp.SynT || pair.FuncT >= comp.FuncT {
		t.Errorf("pair mode must be faster: %+v vs %+v", pair, comp)
	}
}

func TestExpertPassJudgments(t *testing.T) {
	m := dataset.ByName("counter_12bit")
	if !ExpertPass(m.Source, m, baseline.SimServices{}) {
		t.Error("expert rejects the golden source")
	}
	buggy := strings.Replace(m.Source, "count + 12'd1", "count + 12'd2", 1)
	if ExpertPass(buggy, m, baseline.SimServices{}) {
		t.Error("expert accepts a buggy counter")
	}
	if ExpertPass("", m, baseline.SimServices{}) {
		t.Error("expert accepts empty source")
	}
	if ExpertPass("module counter_12bit(input clk; endmodule", m, baseline.SimServices{}) {
		t.Error("expert accepts syntax-broken source")
	}
}

func TestRunSubsetRespectsInstances(t *testing.T) {
	sub := faultgen.Benchmark()[:6]
	recs := Run(Config{Seed: 1, SkipBaselines: true, Instances: sub, Workers: 2})
	if len(recs) != 6 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.Fault != sub[i] {
			t.Fatal("record order does not match instance order")
		}
		if r.MEIC.Hit || r.MEIC.Usage.Calls > 0 {
			t.Error("baselines ran despite SkipBaselines")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sub := faultgen.Benchmark()[:8]
	a := Run(Config{Seed: 7, SkipBaselines: true, Instances: sub})
	b := Run(Config{Seed: 7, SkipBaselines: true, Instances: sub, Workers: 1})
	for i := range a {
		if a[i].UVLLM.Success != b[i].UVLLM.Success ||
			a[i].UVLLMFix != b[i].UVLLMFix ||
			a[i].UVLLM.Times.Total() != b[i].UVLLM.Times.Total() {
			t.Errorf("instance %s not deterministic across runs", a[i].Fault.ID)
		}
	}
}

// TestTokenUsageDeterministic pins the scoreboard's fixed mismatch order
// end to end: when one cycle mismatches on several outputs, the UVM log
// the repair prompt quotes lists them in sorted name order, so repeated
// runs on fresh caches spend identical tokens. The instance and oracle
// seed are one where map-ordered mismatches made the count move by one.
func TestTokenUsageDeterministic(t *testing.T) {
	var inst *faultgen.Fault
	for _, f := range faultgen.Benchmark() {
		if f.ID == "adder_8bit/SynKeywordTypo-0" {
			inst = f
		}
	}
	if inst == nil {
		t.Fatal("instance adder_8bit/SynKeywordTypo-0 not in the benchmark")
	}
	seen := map[int]int{}
	for i := 0; i < 40; i++ {
		recs := Run(Config{
			Seed: 13, SkipBaselines: true, Instances: []*faultgen.Fault{inst}, Workers: 1,
			Cache: sim.NewCache(), Memo: uvm.NewTraceMemo(),
		})
		seen[recs[0].UVLLM.Usage.InputTokens]++
	}
	if len(seen) != 1 {
		t.Fatalf("UVLLM input tokens vary across identical runs: %v", seen)
	}
}

func TestFullReportMentionsEverything(t *testing.T) {
	rep := testSession().FullReport()
	for _, want := range []string{"Fig. 5", "Fig. 6", "Fig. 7", "Table II", "Table III", "Headline"} {
		if !strings.Contains(rep, want) {
			t.Errorf("full report missing %q", want)
		}
	}
}

func TestPassAtKStudyShape(t *testing.T) {
	r := testSession().PassAtKStudy(30, 3)
	if r.Instances != 30 || len(r.PassAt) != 3 {
		t.Fatalf("shape = %+v", r)
	}
	for i, p := range r.PassAt {
		if p < 0 || p > 100 {
			t.Errorf("pass@%d = %f out of range", i+1, p)
		}
		if i > 0 && p < r.PassAt[i-1]-1e-9 {
			t.Errorf("pass@k not monotone: %v", r.PassAt)
		}
	}
	if !strings.Contains(FormatPassAtK(r), "pass@3") {
		t.Error("format missing pass@3")
	}
}
