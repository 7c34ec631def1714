// Package preproc implements Algorithm 1 of the UVLLM paper: the joint
// LLM–script pre-processing loop. The linter is run repeatedly; syntax
// errors are handed to the LLM agent with the lint log as error
// information, while the focused timing-related warnings (COMBDLY, BLKSEQ,
// incomplete sensitivity, missing async reset edge) are repaired by script
// templates without spending LLM tokens.
package preproc

import (
	"fmt"
	"regexp"
	"strings"

	"uvllm/internal/lint"
	"uvllm/internal/llm"
	"uvllm/internal/repair"
	"uvllm/internal/sim"
)

// Result is the outcome of pre-processing one DUT.
type Result struct {
	Source        string // pre-processed source
	Clean         bool   // no errors and no focused warnings remain
	Iterations    int    // linter loop iterations executed
	LintRuns      int
	LLMCalls      int
	Changed       bool     // the source was modified
	TemplateFixes []string // descriptions of script-template repairs
	Log           []string
}

// Options configures the loop.
type Options struct {
	Mode llm.GenMode
	// Cache is the job's compile cache; the linter reads each source's
	// parse through it, so a job scope (sim.Cache.Scope) shares them with
	// the rest of the job. nil lints every source afresh.
	Cache *sim.Cache
}

// maxIterations is the linter loop's budget.
const maxIterations = 3

// Run executes Algorithm 1 on src. The client repairs syntax errors; the
// templates handle focused warnings. It never returns an error: an
// unrepairable DUT comes back with Clean=false for the caller to count as
// a failure.
func Run(src, spec, moduleName string, client llm.Client, opts Options, usage *llm.Usage) Result {
	res := Result{Source: src}
	for iter := 1; iter <= maxIterations; iter++ {
		res.Iterations = iter
		rep := opts.Cache.Lint(res.Source)
		res.LintRuns++
		errs := rep.Errors()
		warns := rep.FocusedWarnings()
		if len(errs) == 0 && len(warns) == 0 {
			res.Clean = true
			return res
		}
		if len(errs) > 0 {
			// Errs -> GPT(F, Errs)
			req := llm.BuildRepairRequest(llm.RepairContext{
				ModuleName: moduleName,
				Spec:       spec,
				Source:     res.Source,
				Stage:      llm.StageLint,
				ErrorInfo:  formatDiags(errs),
				Iteration:  iter,
				Mode:       opts.Mode,
			})
			resp, err := client.Complete(req)
			res.LLMCalls++
			if usage != nil {
				usage.Add(resp)
			}
			if err != nil {
				res.Log = append(res.Log, fmt.Sprintf("iter %d: LLM error: %v", iter, err))
				continue
			}
			reply, err := llm.ParseRepairReply(resp.Content)
			if err != nil {
				res.Log = append(res.Log, fmt.Sprintf("iter %d: unparseable reply: %v", iter, err))
				continue
			}
			next, err := repair.ApplyReply(res.Source, reply, opts.Mode)
			if err != nil {
				res.Log = append(res.Log, fmt.Sprintf("iter %d: patch failed: %v", iter, err))
				continue
			}
			if next != res.Source {
				res.Source = next
				res.Changed = true
				res.Log = append(res.Log, fmt.Sprintf("iter %d: LLM repaired %d lint error(s)", iter, len(errs)))
			}
			continue
		}
		// Warns -> Search(Warns, WarnList); Replace(F, WarnTemps)
		next, fixes := ApplyTemplates(res.Source, warns)
		if next == res.Source {
			// Template did not engage; leave the warning for the repair
			// stage rather than spinning.
			res.Log = append(res.Log, fmt.Sprintf("iter %d: no template for %d warning(s)", iter, len(warns)))
			break
		}
		res.Source = next
		res.Changed = true
		res.TemplateFixes = append(res.TemplateFixes, fixes...)
		res.Log = append(res.Log, fmt.Sprintf("iter %d: templates fixed %d warning(s)", iter, len(fixes)))
	}
	rep := opts.Cache.Lint(res.Source)
	res.LintRuns++
	res.Clean = len(rep.Errors()) == 0 && len(rep.FocusedWarnings()) == 0
	return res
}

func formatDiags(ds []lint.Diag) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

var sensListRe = regexp.MustCompile(`@\s*\([^)]*\)`)

// ApplyTemplates performs the script-side repairs of Algorithm 1 for the
// focused warnings, line-targeted by the linter diagnostics. It returns
// the rewritten source and a description of each fix applied.
func ApplyTemplates(src string, warns []lint.Diag) (string, []string) {
	ls := strings.Split(src, "\n")
	var fixes []string
	for _, w := range warns {
		li := w.Line - 1
		if li < 0 || li >= len(ls) {
			continue
		}
		line := ls[li]
		switch w.Code {
		case lint.CodeCombDelay:
			// "<=" in combinational logic becomes "=" (the paper's
			// running example).
			if strings.Contains(line, "<=") {
				ls[li] = strings.Replace(line, "<=", "=", 1)
				fixes = append(fixes, fmt.Sprintf("line %d: '<=' -> '=' (COMBDLY)", w.Line))
			}
		case lint.CodeBlockSeq:
			if i := blockingAssignIndex(line); i >= 0 {
				ls[li] = line[:i] + "<=" + line[i+1:]
				fixes = append(fixes, fmt.Sprintf("line %d: '=' -> '<=' (BLKSEQ)", w.Line))
			}
		case lint.CodeSens:
			// Incomplete sensitivity list becomes @(*).
			if sensListRe.MatchString(line) {
				ls[li] = sensListRe.ReplaceAllString(line, "@(*)")
				fixes = append(fixes, fmt.Sprintf("line %d: sensitivity list -> @(*)", w.Line))
			}
		case lint.CodeSyncAsync:
			// Add the missing reset edge to the list.
			edge := "negedge"
			if strings.Contains(w.Msg, "add posedge") {
				edge = "posedge"
			}
			if m := sensListRe.FindStringIndex(line); m != nil {
				inner := line[m[0]:m[1]]
				patched := inner[:len(inner)-1] + " or " + edge + " " + w.Signal + ")"
				ls[li] = line[:m[0]] + patched + line[m[1]:]
				fixes = append(fixes, fmt.Sprintf("line %d: added '%s %s' to sensitivity list", w.Line, edge, w.Signal))
			}
		}
	}
	return strings.Join(ls, "\n"), fixes
}

// blockingAssignIndex finds a bare "=" on the line that is not part of a
// two-character operator.
func blockingAssignIndex(line string) int {
	for i := 0; i < len(line); i++ {
		if line[i] != '=' {
			continue
		}
		if i > 0 && strings.ContainsRune("<>!=+-*/&|^~", rune(line[i-1])) {
			continue
		}
		if i+1 < len(line) && line[i+1] == '=' {
			i++
			continue
		}
		return i
	}
	return -1
}
