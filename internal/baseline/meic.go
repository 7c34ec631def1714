package baseline

import (
	"fmt"
	"strconv"
	"strings"

	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/metrics"
)

// MEIC reimplements the MEIC framework's structure (Xu et al. 2024, the
// paper's main comparison): an iterative loop with a fix agent and a
// review agent, driven by minimally-processed simulation logs and a
// finite directed testbench. No pre-processing stage, no localization
// engine, no score-register rollback.
type MEIC struct {
	Client  llm.Client
	Cost    metrics.CostModel
	MaxIter int         // paper-era MEIC iterates up to 10
	Sim     SimServices // engine + shared compile cache + trace memo
}

// NewMEIC builds the baseline with defaults.
func NewMEIC(client llm.Client) *MEIC {
	return &MEIC{Client: client, Cost: defaultCost, MaxIter: 10}
}

// Repair runs MEIC on one benchmark instance.
func (x *MEIC) Repair(f *faultgen.Fault) Outcome {
	m := f.Meta()
	out := Outcome{Final: f.Source}
	design, err := elaborateFor(m, x.Sim)
	if err != nil {
		return out
	}
	vectors := WeakBench(m, design)
	cur := f.Source
	var history []string // MEIC carries its whole conversation forward
	for iter := 1; iter <= x.MaxIter; iter++ {
		pass, log, n := RunOwnBench(cur, m, vectors, x.Sim)
		out.Seconds += x.Cost.Sim(n)
		if pass {
			// The finite testbench is satisfied — MEIC accepts, whether
			// or not the code is actually correct (the overfitting the
			// UVLLM paper measures as the HR−FR gap).
			out.Hit = true
			out.Final = cur
			return out
		}
		if iter == x.MaxIter {
			break
		}
		// Fix agent: raw log as error information, plus the growing
		// conversation history MEIC-style loops drag along — the token
		// inefficiency UVLLM's localization engine eliminates.
		errInfo := verboseLog(log, history)
		req := llm.BuildRepairRequest(llm.RepairContext{
			ModuleName: m.Name,
			Spec:       m.Spec,
			Source:     cur,
			Stage:      llm.StageMEIC,
			ErrorInfo:  errInfo,
			Iteration:  iter,
		})
		resp, err := x.Client.Complete(req)
		if err != nil {
			break
		}
		out.Usage.Add(resp)
		out.Seconds += x.Cost.LLMCall(resp.InputTokens, resp.OutputTokens)

		// Review agent: MEIC's second LLM consults on repair quality; it
		// costs a call but has no quantitative acceptance metric (the gap
		// the score register fills in UVLLM).
		review := llm.Request{
			Model: "gpt-4-turbo",
			Messages: []llm.Message{
				{Role: "system", Content: "You review proposed Verilog repairs."},
				{Role: "user", Content: "Review this repair proposal:\n" + truncate(resp.Content, 2000)},
			},
		}
		rresp, rerr := x.Client.Complete(review)
		if rerr == nil {
			out.Usage.Add(rresp)
			out.Seconds += x.Cost.LLMCall(rresp.InputTokens, rresp.OutputTokens)
		}
		history = append(history, truncate(resp.Content, 1200))

		reply, err := llm.ParseRepairReply(resp.Content)
		if err != nil {
			continue
		}
		cand, err := applyLoose(cur, reply)
		if err != nil {
			continue
		}
		cur = cand
	}
	// Final check.
	pass, _, n := RunOwnBench(cur, m, vectors, x.Sim)
	out.Seconds += x.Cost.Sim(n)
	out.Hit = pass
	out.Final = cur
	return out
}

// verboseLog pads the raw UVM log the way MEIC feeds it to the model —
// low information density, high token count (the inefficiency UVLLM's
// localization engine removes) — followed by the earlier attempts, if
// any.
func verboseLog(log string, history []string) string {
	const prev, sep = "\nPrevious attempts:\n", "\n---\n"
	const head, tailHead = "Full simulation log follows.\n", "Log tail (repeated):\n"
	lines := strings.Split(log, "\n")
	// MEIC also repeats the tail of the log in its prompt template: the
	// last 20 lines, a suffix of log.
	tail := lines
	if len(tail) > 20 {
		tail = tail[len(tail)-20:]
	}
	tailLen := len(tail) - 1
	for _, ln := range tail {
		tailLen += len(ln)
	}
	// Each line gains a "[%04d] " prefix and a newline: eight bytes below
	// line 10000.
	n := len(head) + len(log) + 8*len(lines) + len(tailHead) + tailLen
	if len(history) > 0 {
		n += len(prev) + len(sep)*(len(history)-1)
		for _, h := range history {
			n += len(h)
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	var num [20]byte
	for i, ln := range lines {
		d := strconv.AppendInt(num[:0], int64(i), 10)
		b.WriteByte('[')
		for k := len(d); k < 4; k++ {
			b.WriteByte('0')
		}
		b.Write(d)
		b.WriteString("] ")
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	b.WriteString(tailHead)
	b.WriteString(log[len(log)-tailLen:])
	for i, h := range history {
		if i == 0 {
			b.WriteString(prev)
		} else {
			b.WriteString(sep)
		}
		b.WriteString(h)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// applyLoose applies a reply in pair mode, falling back to complete mode.
func applyLoose(src string, reply *llm.RepairReply) (string, error) {
	if len(reply.Correct) > 0 {
		out := src
		applied := 0
		for _, p := range reply.Correct {
			if p.Original == "" || !strings.Contains(out, p.Original) {
				continue
			}
			out = strings.Replace(out, p.Original, p.Patched, 1)
			applied++
		}
		if applied > 0 {
			return out, nil
		}
	}
	if strings.Contains(reply.Complete, "module") {
		return reply.Complete, nil
	}
	return "", fmt.Errorf("baseline: MEIC reply not applicable")
}

// RawLLM is the one-shot GPT-4-turbo baseline: a single repair request
// with no tool-derived error information, checked against the same weak
// bench.
type RawLLM struct {
	Client llm.Client
	Cost   metrics.CostModel
	Sim    SimServices
}

// NewRawLLM builds the baseline with defaults.
func NewRawLLM(client llm.Client) *RawLLM {
	return &RawLLM{Client: client, Cost: defaultCost}
}

// Repair runs the one-shot baseline on one benchmark instance.
func (x *RawLLM) Repair(f *faultgen.Fault) Outcome {
	m := f.Meta()
	out := Outcome{Final: f.Source}
	design, err := elaborateFor(m, x.Sim)
	if err != nil {
		return out
	}
	vectors := WeakBench(m, design)

	req := llm.BuildRepairRequest(llm.RepairContext{
		ModuleName: m.Name,
		Spec:       m.Spec,
		Source:     f.Source,
		Stage:      llm.StageRaw,
		ErrorInfo:  "The design does not meet its specification. Find and fix the bug.",
		Iteration:  1,
	})
	resp, err := x.Client.Complete(req)
	if err == nil {
		out.Usage.Add(resp)
		out.Seconds += x.Cost.LLMCall(resp.InputTokens, resp.OutputTokens)
		if reply, perr := llm.ParseRepairReply(resp.Content); perr == nil {
			if cand, aerr := applyLoose(f.Source, reply); aerr == nil {
				out.Final = cand
			}
		}
	}
	pass, _, n := RunOwnBench(out.Final, m, vectors, x.Sim)
	out.Seconds += x.Cost.Sim(n)
	out.Hit = pass
	return out
}
