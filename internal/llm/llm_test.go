package llm

import (
	"strings"
	"testing"
)

func TestCountTokens(t *testing.T) {
	cases := []struct {
		s    string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"abcd", 1},
		{"abcde", 2},
		{strings.Repeat("x", 400), 100},
	}
	for _, c := range cases {
		if got := CountTokens(c.s); got != c.want {
			t.Errorf("CountTokens(%d chars) = %d, want %d", len(c.s), got, c.want)
		}
	}
}

func TestScriptedClientAndMetered(t *testing.T) {
	sc := &Scripted{Responses: []string{"one", "two"}}
	m := &Metered{Inner: sc}
	r1, err := m.Complete(Request{Messages: []Message{{Role: "user", Content: "hi"}}})
	if err != nil || r1.Content != "one" {
		t.Fatalf("first = %q, %v", r1.Content, err)
	}
	if _, err := m.Complete(Request{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Complete(Request{}); err == nil {
		t.Error("exhausted scripted client should error")
	}
	if m.Usage.Calls != 2 || m.Usage.OutputTokens == 0 {
		t.Errorf("usage = %+v", m.Usage)
	}
}

func TestBuildRepairRequestSections(t *testing.T) {
	req := BuildRepairRequest(RepairContext{
		ModuleName: "accu",
		Spec:       "spec text",
		Source:     "module accu; endmodule",
		Stage:      StageMS,
		ErrorInfo:  "mismatch signal=sum",
		Iteration:  2,
		DamageRepairs: []PatchPair{
			{Original: "a + b", Patched: "a - b"},
		},
	})
	text := req.Text()
	for _, want := range []string{
		"=== Specification ===", "=== DUT ===",
		"=== Error Information (mismatch-signals) ===",
		"Damage Repairs", "a + b", "(iteration 2)", `"correct"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
	if req.ResponseFormat != "json_object" {
		t.Error("structured outputs not requested")
	}
	if got := detectStage(req.Text()); got != StageMS {
		t.Errorf("detectStage = %v", got)
	}
}

func TestBuildRepairRequestCompleteMode(t *testing.T) {
	req := BuildRepairRequest(RepairContext{
		ModuleName: "m", Spec: "s", Source: "src", Stage: StageLint, Mode: ModeComplete,
	})
	if !strings.Contains(req.Text(), `"complete"`) {
		t.Error("complete-mode instruction missing")
	}
}

func TestParseRepairReply(t *testing.T) {
	content := `Sure! Here is the fix you asked for:
{"module name": "accu", "analysis": "off-by-one in the adder",
 "correct": [["sum <= sum + 2;", "sum <= sum + 1;"]]}
Hope this helps.`
	r, err := ParseRepairReply(content)
	if err != nil {
		t.Fatal(err)
	}
	if r.ModuleName != "accu" || len(r.Correct) != 1 {
		t.Fatalf("parsed = %+v", r)
	}
	if r.Correct[0].Patched != "sum <= sum + 1;" {
		t.Errorf("patched = %q", r.Correct[0].Patched)
	}
}

func TestParseRepairReplyNestedBracesInStrings(t *testing.T) {
	content := `{"module name": "m", "analysis": "braces { } in \"strings\" are fine", "correct": [["a", "b"]]}`
	r, err := ParseRepairReply(content)
	if err != nil {
		t.Fatal(err)
	}
	if r.Analysis == "" || len(r.Correct) != 1 {
		t.Fatalf("parsed = %+v", r)
	}
}

func TestParseRepairReplyErrors(t *testing.T) {
	if _, err := ParseRepairReply("no json here"); err == nil {
		t.Error("missing JSON accepted")
	}
	if _, err := ParseRepairReply(`{"correct": [["only one"]]}`); err == nil {
		t.Error("malformed pair accepted")
	}
	if _, err := ParseRepairReply(`{"unterminated": "`); err == nil {
		t.Error("unterminated JSON accepted")
	}
}

func TestFormatReplyRoundTrip(t *testing.T) {
	in := &RepairReply{
		ModuleName: "alu",
		Analysis:   "operator misuse",
		Correct:    []PatchPair{{Original: "y = a - b;", Patched: "y = a + b;"}},
	}
	out, err := ParseRepairReply(FormatReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ModuleName != in.ModuleName || len(out.Correct) != 1 ||
		out.Correct[0] != in.Correct[0] {
		t.Errorf("round trip lost data: %+v", out)
	}
}

func TestLineDiff(t *testing.T) {
	golden := "a\nb\nc\nd"
	cases := []struct {
		name        string
		cur         string
		orig, patch string
		ndiff       int
	}{
		{"identical", "a\nb\nc\nd", "", "", 0},
		{"one line changed", "a\nB\nc\nd", "B", "b", 1},
		{"line deleted", "a\nc\nd", "a", "a\nb", 1},
		{"line added", "a\nb\nx\nc\nd", "x", "", 1},
	}
	for _, c := range cases {
		orig, patch, nd := LineDiff(c.cur, golden)
		if nd != c.ndiff {
			t.Errorf("%s: ndiff = %d, want %d", c.name, nd, c.ndiff)
			continue
		}
		if nd == 0 {
			continue
		}
		// Applying the patch must transform cur into golden.
		got := strings.Replace(c.cur, orig, patch, 1)
		if got != golden {
			t.Errorf("%s: applying (%q -> %q) gave %q, want %q", c.name, orig, patch, got, golden)
		}
	}
}

func TestLineDiffInsertionAtTop(t *testing.T) {
	golden := "first\na\nb"
	cur := "a\nb"
	orig, patch, nd := LineDiff(cur, golden)
	if nd == 0 {
		t.Fatal("no diff found")
	}
	if got := strings.Replace(cur, orig, patch, 1); got != golden {
		t.Errorf("apply gave %q, want %q", got, golden)
	}
}

const oracleGolden = `module toy(
    input [7:0] a,
    input [7:0] b,
    output [7:0] y
);
    assign y = a + b;
endmodule
`

func oracleFor(class string, complexity int, seed int64) *Oracle {
	return NewOracle(Knowledge{
		FaultID:    "toy/F1",
		Golden:     oracleGolden,
		Class:      class,
		Complexity: complexity,
	}, DefaultProfile(), seed)
}

func requestFor(src string, stage Stage, iter int) Request {
	return BuildRepairRequest(RepairContext{
		ModuleName: "toy", Spec: "toy adds a and b", Source: src,
		Stage: stage, ErrorInfo: "mismatch signal=y", Iteration: iter,
	})
}

func TestOracleSolvableInstanceReturnsTrueFix(t *testing.T) {
	faulty := strings.Replace(oracleGolden, "a + b", "a - b", 1)
	// Scan seeds for one where the draw succeeds at MS stage: the reply
	// must then be the exact golden patch.
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		o := oracleFor("FuncLogic", 1, seed)
		resp, err := o.Complete(requestFor(faulty, StageMS, 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ParseRepairReply(resp.Content)
		if err != nil {
			t.Fatalf("oracle emitted unparseable reply: %v\n%s", err, resp.Content)
		}
		if len(r.Correct) != 1 {
			continue
		}
		fixed := strings.Replace(faulty, r.Correct[0].Original, r.Correct[0].Patched, 1)
		if fixed == oracleGolden {
			found = true
		}
	}
	if !found {
		t.Error("no seed produced the true fix at p=0.82; oracle success path broken")
	}
}

func TestOracleDeterministicPerStage(t *testing.T) {
	faulty := strings.Replace(oracleGolden, "a + b", "a - b", 1)
	o1 := oracleFor("FuncLogic", 1, 7)
	o2 := oracleFor("FuncLogic", 1, 7)
	r1, _ := o1.Complete(requestFor(faulty, StageMS, 1))
	r2, _ := o2.Complete(requestFor(faulty, StageMS, 1))
	if r1.Content != r2.Content {
		t.Error("oracle not deterministic for identical seed and prompt")
	}
}

func TestOracleCleanDUTSaysNoDefect(t *testing.T) {
	o := oracleFor("FuncLogic", 1, 3)
	resp, err := o.Complete(requestFor(oracleGolden, StageMS, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseRepairReply(resp.Content)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Correct) != 0 || r.Complete != "" {
		t.Errorf("oracle proposed a repair for clean code: %+v", r)
	}
}

func TestOracleProbabilityStructure(t *testing.T) {
	prof := DefaultProfile()
	kSimple := Knowledge{Class: "FuncLogic", Complexity: 1}
	kHard := Knowledge{Class: "FuncLogic", Complexity: 4, IsFSM: true}
	if prof.Prob(StageMS, ModePair, kHard, 1) >= prof.Prob(StageMS, ModePair, kSimple, 1) {
		t.Error("complexity/FSM penalties not applied")
	}
	kSyn := Knowledge{Class: "SynMissingSemi", Complexity: 1}
	if prof.Prob(StageLint, ModePair, kSyn, 1) <= prof.Prob(StageMS, ModePair, kSyn, 1) {
		t.Error("lint info should help syntax repair the most")
	}
	if prof.Prob(StageMS, ModeComplete, kSimple, 1) >= prof.Prob(StageMS, ModePair, kSimple, 1) {
		t.Error("complete mode should be penalized (Table III)")
	}
	if prof.Prob(StageMS, ModePair, kSimple, 3) <= prof.Prob(StageMS, ModePair, kSimple, 1) {
		t.Error("iteration bonus missing")
	}
	if p := prof.Prob(StageLint, ModePair, kSyn, 50); p > 0.99 {
		t.Error("probability must be capped below 1")
	}
}

func TestOracleRateMatchesProfile(t *testing.T) {
	// Across many fault IDs, the fraction of solvable instances at a stage
	// must track the configured probability.
	prof := DefaultProfile()
	faulty := strings.Replace(oracleGolden, "a + b", "a - b", 1)
	n, hits := 600, 0
	for i := 0; i < n; i++ {
		k := Knowledge{
			FaultID: strings.Repeat("x", i%7) + "id" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + "/" + string(rune('A'+(i/26)%26)),
			Golden:  oracleGolden, Class: "FuncLogic", Complexity: 1,
		}
		o := NewOracle(k, prof, 42)
		resp, err := o.Complete(requestFor(faulty, StageMS, 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ParseRepairReply(resp.Content)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Correct) == 1 &&
			strings.Replace(faulty, r.Correct[0].Original, r.Correct[0].Patched, 1) == oracleGolden {
			hits++
		}
	}
	want := prof.Prob(StageMS, ModePair, Knowledge{Class: "FuncLogic", Complexity: 1}, 1)
	got := float64(hits) / float64(n)
	if got < want-0.07 || got > want+0.07 {
		t.Errorf("empirical solve rate %.3f, profile says %.3f", got, want)
	}
}

func TestOracleHallucinationsDoNotRepeat(t *testing.T) {
	faulty := strings.Replace(oracleGolden, "a + b", "a - b", 1)
	// Find a seed where the instance is NOT solvable at MS so failures
	// hallucinate; then ask repeatedly and collect damaging patches.
	for seed := int64(0); seed < 60; seed++ {
		o := oracleFor("FuncDeclType", 5, seed)
		seen := map[string]int{}
		damaging := 0
		for i := 0; i < 8; i++ {
			resp, err := o.Complete(requestFor(faulty, StageSL, 1))
			if err != nil {
				t.Fatal(err)
			}
			r, err := ParseRepairReply(resp.Content)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Correct) != 1 {
				continue
			}
			pp := r.Correct[0]
			if pp.Original == pp.Patched {
				continue // harmless no-op
			}
			if strings.Replace(faulty, pp.Original, pp.Patched, 1) == oracleGolden {
				damaging = -1 // solvable seed; try next
				break
			}
			damaging++
			seen[pp.Original+"->"+pp.Patched]++
		}
		if damaging > 1 {
			for k, c := range seen {
				if c > 1 {
					t.Errorf("hallucinated patch repeated %d times: %s", c, k)
				}
			}
			return
		}
	}
	t.Skip("no unsolvable seed with multiple hallucinations found (acceptable)")
}
