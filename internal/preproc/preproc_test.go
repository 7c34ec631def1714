package preproc

import (
	"strings"
	"testing"

	"uvllm/internal/lint"
	"uvllm/internal/llm"
)

func TestTemplateCombDelay(t *testing.T) {
	src := `module m(input a, input b, output reg y);
always @(*) begin
    y <= a & b;
end
endmodule`
	rep := lint.Lint(src)
	out, fixes := ApplyTemplates(src, rep.FocusedWarnings())
	if len(fixes) != 1 || !strings.Contains(fixes[0], "COMBDLY") {
		t.Fatalf("fixes = %v", fixes)
	}
	if !strings.Contains(out, "y = a & b;") {
		t.Errorf("template did not rewrite:\n%s", out)
	}
	if !lint.Lint(out).Clean() {
		t.Errorf("result not clean:\n%s", lint.Lint(out).Format())
	}
}

func TestTemplateBlockSeq(t *testing.T) {
	src := `module m(input clk, input d, output reg q);
always @(posedge clk) begin
    q = d;
end
endmodule`
	rep := lint.Lint(src)
	out, fixes := ApplyTemplates(src, rep.FocusedWarnings())
	if len(fixes) != 1 {
		t.Fatalf("fixes = %v", fixes)
	}
	if !strings.Contains(out, "q <= d;") {
		t.Errorf("template did not rewrite:\n%s", out)
	}
}

func TestTemplateSensitivity(t *testing.T) {
	src := `module m(input a, input b, output reg y);
always @(a) begin
    y = a & b;
end
endmodule`
	rep := lint.Lint(src)
	out, _ := ApplyTemplates(src, rep.FocusedWarnings())
	if !strings.Contains(out, "@(*)") {
		t.Errorf("sensitivity not fixed:\n%s", out)
	}
	if !lint.Lint(out).Clean() {
		t.Errorf("result not clean:\n%s", lint.Lint(out).Format())
	}
}

func TestTemplateSyncAsyncReset(t *testing.T) {
	src := `module m(input clk, input rst_n, input d, output reg q);
always @(posedge clk) begin
    if (!rst_n) begin
        q <= 1'b0;
    end else begin
        q <= d;
    end
end
endmodule`
	rep := lint.Lint(src)
	out, fixes := ApplyTemplates(src, rep.FocusedWarnings())
	if len(fixes) != 1 {
		t.Fatalf("fixes = %v", fixes)
	}
	if !strings.Contains(out, "posedge clk or negedge rst_n") {
		t.Errorf("reset edge not added:\n%s", out)
	}
	if !lint.Lint(out).Clean() {
		t.Errorf("result not clean:\n%s", lint.Lint(out).Format())
	}
}

func TestRunPureTemplatesNoLLM(t *testing.T) {
	src := `module m(input a, input b, output reg y);
always @(*) begin
    y <= a & b;
end
endmodule`
	// A client that fails loudly if consulted.
	client := &llm.Scripted{}
	res := Run(src, "spec", "m", client, Options{}, nil)
	if !res.Clean {
		t.Fatalf("not clean: %v", res.Log)
	}
	if res.LLMCalls != 0 {
		t.Errorf("templates should not consume LLM calls, got %d", res.LLMCalls)
	}
	if len(res.TemplateFixes) == 0 {
		t.Error("no template fixes recorded")
	}
}

func TestRunLLMFixesSyntax(t *testing.T) {
	src := `module m(input a, output w);
asign w = a;
endmodule`
	reply := llm.FormatReply(&llm.RepairReply{
		ModuleName: "m",
		Analysis:   "keyword typo",
		Correct:    []llm.PatchPair{{Original: "asign w = a;", Patched: "assign w = a;"}},
	})
	client := &llm.Scripted{Responses: []string{reply}}
	usage := llm.Usage{}
	res := Run(src, "spec", "m", client, Options{}, &usage)
	if !res.Clean {
		t.Fatalf("not clean after LLM fix: %v", res.Log)
	}
	if res.LLMCalls != 1 || usage.Calls != 1 {
		t.Errorf("LLM calls = %d (usage %d), want 1", res.LLMCalls, usage.Calls)
	}
	if !strings.Contains(res.Source, "assign w = a;") {
		t.Errorf("source not fixed:\n%s", res.Source)
	}
}

func TestRunGivesUpAfterBudget(t *testing.T) {
	src := `module m(input a, output w);
asign w = a;
endmodule`
	// The client keeps returning an unusable reply.
	bad := llm.FormatReply(&llm.RepairReply{ModuleName: "m", Analysis: "hmm",
		Correct: []llm.PatchPair{{Original: "not in source", Patched: "x"}}})
	client := &llm.Scripted{Responses: []string{bad, bad, bad, bad, bad}}
	res := Run(src, "spec", "m", client, Options{}, nil)
	if res.Clean {
		t.Error("cannot be clean with useless patches")
	}
	if res.LLMCalls != 3 {
		t.Errorf("LLM calls = %d, want 3", res.LLMCalls)
	}
}

func TestBlockingAssignIndex(t *testing.T) {
	cases := []struct {
		line string
		want bool
	}{
		{"q = d;", true},
		{"q <= d;", false},
		{"if (a == b) q = d;", true},
		{"x != y;", false},
		{"a >= b;", false},
	}
	for _, c := range cases {
		got := blockingAssignIndex(c.line) >= 0
		if got != c.want {
			t.Errorf("blockingAssignIndex(%q) found=%v, want %v", c.line, got, c.want)
		}
	}
}
