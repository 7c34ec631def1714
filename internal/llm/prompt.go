package llm

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Stage labels the kind of error information a repair prompt carries; the
// paper's segmented strategy feeds richer information as repair attempts
// escalate (Sec. III-C).
type Stage string

// Stages.
const (
	StageLint Stage = "lint"             // pre-processing: linter findings
	StageMS   Stage = "mismatch-signals" // repair with scoreboard signals
	StageSL   Stage = "suspicious-lines" // repair with dynamic slice lines
	StageMEIC Stage = "meic-log"         // MEIC baseline: raw sim log
	StageRaw  Stage = "raw"              // raw-LLM baseline: no error info
)

// GenMode selects the output representation of the repair agent — the
// ablation axis of paper Table III.
type GenMode int

// Generation modes.
const (
	ModePair     GenMode = iota // original→patched code pairs (default)
	ModeComplete                // regenerate the entire module
)

// PatchPair is one original→patched snippet pair from the "correct" field
// of the agent's JSON reply.
type PatchPair struct {
	Original string
	Patched  string
}

// RepairContext carries everything the prompt of Fig. 4 includes.
type RepairContext struct {
	ModuleName    string
	Spec          string
	Source        string
	Stage         Stage
	ErrorInfo     string // stage-dependent: lint log / mismatch list / lines
	DamageRepairs []PatchPair
	Iteration     int
	Mode          GenMode
}

// The error-information header of a repair prompt is stageMarkerHead,
// the stage, then stageMarkerTail; detectStage looks for it.
const (
	stageMarkerHead = "=== Error Information ("
	stageMarkerTail = ") ==="
)

// stageMarkers are the error-information headers in detectStage's order.
var stageMarkers = [...]struct {
	stage  Stage
	marker string
}{
	{StageLint, stageMarkerHead + string(StageLint) + stageMarkerTail},
	{StageMS, stageMarkerHead + string(StageMS) + stageMarkerTail},
	{StageSL, stageMarkerHead + string(StageSL) + stageMarkerTail},
	{StageMEIC, stageMarkerHead + string(StageMEIC) + stageMarkerTail},
	{StageRaw, stageMarkerHead + string(StageRaw) + stageMarkerTail},
}

const damageHeader = "\n=== Damage Repairs (previously tried, made things worse; do NOT repeat) ===\n"

const completeInstructions = `Respond with JSON only, following this schema:
{"module name": "<name>", "analysis": "<root cause>", "complete": "<the full corrected Verilog source>"}`

const pairInstructions = `Respond with JSON only, following this schema:
{"module name": "<name>", "analysis": "<root cause>", "correct": [["<original code>", "<patched code>"], ...]}
Each pair must quote the original code exactly as it appears in the DUT.`

const systemPrompt = `You are an expert in Verilog verification and RTL
repair. You analyze a design under test against its specification and the
provided error information, and produce minimal, correct repairs.`

// BuildRepairRequest renders the repair prompt in the paper's input format
// (Fig. 4): specification, DUT, error information, damage repairs to avoid,
// and the Structured-Outputs instruction.
func BuildRepairRequest(ctx RepairContext) Request {
	spec, errInfo := strings.TrimSpace(ctx.Spec), strings.TrimSpace(ctx.ErrorInfo)
	instructions := pairInstructions
	if ctx.Mode == ModeComplete {
		instructions = completeInstructions
	}
	// Size the builder from the inputs: the fixed text is under 256 bytes,
	// and quoting a damage repair adds its quotes and escapes.
	n := 256 + len(ctx.ModuleName) + len(spec) + len(ctx.Source) + len(ctx.Stage) + len(errInfo) + len(instructions)
	if len(ctx.DamageRepairs) > 0 {
		n += len(damageHeader)
		for _, p := range ctx.DamageRepairs {
			n += 32 + len(p.Original) + len(p.Patched)
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("Module under repair: ")
	b.WriteString(ctx.ModuleName)
	b.WriteString(" (iteration ")
	b.WriteString(strconv.Itoa(ctx.Iteration))
	b.WriteString(")\n\n=== Specification ===\n")
	b.WriteString(spec)
	b.WriteString("\n\n=== DUT ===\n")
	b.WriteString(ctx.Source)
	b.WriteString("\n")
	b.WriteString(stageMarkerHead)
	b.WriteString(string(ctx.Stage))
	b.WriteString(stageMarkerTail)
	b.WriteString("\n")
	if errInfo == "" {
		b.WriteString("(none provided)\n")
	} else {
		b.WriteString(errInfo)
		b.WriteString("\n")
	}
	if len(ctx.DamageRepairs) > 0 {
		b.WriteString(damageHeader)
		for _, p := range ctx.DamageRepairs {
			fmt.Fprintf(&b, "- original: %q patched: %q\n", p.Original, p.Patched)
		}
	}
	b.WriteString("\n=== Instructions ===\n")
	b.WriteString(instructions)
	return Request{
		Model:          "gpt-4-turbo",
		ResponseFormat: "json_object",
		Temperature:    0.2,
		Messages: []Message{
			{Role: "system", Content: systemPrompt},
			{Role: "user", Content: b.String()},
		},
	}
}

// RepairReply is the parsed agent response of Fig. 4.
type RepairReply struct {
	ModuleName string
	Analysis   string
	Correct    []PatchPair
	Complete   string // full source, ModeComplete only
}

// rawReply tolerates the loose JSON field naming LLMs produce.
type rawReply struct {
	ModuleNameA string          `json:"module name"`
	ModuleNameB string          `json:"module_name"`
	Analysis    string          `json:"analysis"`
	Correct     [][]string      `json:"correct"`
	Complete    string          `json:"complete"`
	Extra       json.RawMessage `json:"-"`
}

// ParseRepairReply extracts the JSON object from an agent response —
// tolerating surrounding prose and markdown fences, which real models emit
// even under structured-output instructions — and decodes it.
func ParseRepairReply(content string) (*RepairReply, error) {
	blob, err := extractJSONObject(content)
	if err != nil {
		return nil, err
	}
	var raw rawReply
	if err := json.Unmarshal([]byte(blob), &raw); err != nil {
		return nil, fmt.Errorf("llm: response JSON invalid: %w", err)
	}
	out := &RepairReply{
		ModuleName: raw.ModuleNameA,
		Analysis:   raw.Analysis,
		Complete:   raw.Complete,
	}
	if out.ModuleName == "" {
		out.ModuleName = raw.ModuleNameB
	}
	for _, pair := range raw.Correct {
		if len(pair) != 2 {
			return nil, fmt.Errorf("llm: 'correct' entry has %d elements, want 2", len(pair))
		}
		out.Correct = append(out.Correct, PatchPair{Original: pair[0], Patched: pair[1]})
	}
	return out, nil
}

// extractJSONObject returns the first balanced top-level {...} in s,
// respecting string literals and escapes.
func extractJSONObject(s string) (string, error) {
	start := strings.IndexByte(s, '{')
	if start < 0 {
		return "", fmt.Errorf("llm: no JSON object in response")
	}
	depth := 0
	inStr := false
	esc := false
	for i := start; i < len(s); i++ {
		c := s[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return s[start : i+1], nil
			}
		}
	}
	return "", fmt.Errorf("llm: unterminated JSON object in response")
}

// FormatReply renders a RepairReply back to the canonical JSON the agents
// are asked for; the Oracle uses it to emit well-formed responses.
func FormatReply(r *RepairReply) string {
	type pairList [][]string
	obj := map[string]interface{}{
		"module name": r.ModuleName,
		"analysis":    r.Analysis,
	}
	if r.Complete != "" {
		obj["complete"] = r.Complete
	} else {
		pl := pairList{}
		for _, p := range r.Correct {
			pl = append(pl, []string{p.Original, p.Patched})
		}
		obj["correct"] = pl
	}
	blob, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(blob)
}

// detectStage recovers the stage marker from a request's rendered text,
// which the Oracle uses to decide how much the error information helps.
func detectStage(text string) Stage {
	for _, sm := range stageMarkers {
		if strings.Contains(text, sm.marker) {
			return sm.stage
		}
	}
	return StageRaw
}
