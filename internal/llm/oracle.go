package llm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Knowledge is what the Oracle knows about one benchmark instance: the
// golden source and the injected fault's metadata. The Oracle never leaks
// this through the Client interface — it only uses it to decide whether a
// given prompt succeeds and to synthesize the repair text, the same way a
// real LLM's weights encode "knowledge" the pipeline cannot inspect.
type Knowledge struct {
	FaultID    string // unique benchmark-instance identifier
	Golden     string // the verified source the fault was injected into
	Class      string // fault class name (Syn*/Func*)
	Complexity int    // module complexity 1..5
	IsFSM      bool
}

// Profile holds the calibrated success probabilities of the simulated
// GPT-4-turbo. The defaults are tuned so that the benchmark harness
// reproduces the per-stage fix-rate structure of paper Table II; see
// EXPERIMENTS.md for the calibration record.
type Profile struct {
	// Per-stage base probability of a correct repair, split by error kind.
	SyntaxLint float64 // syntax fix given linter findings (pre-processing)
	SyntaxMS   float64 // syntax leftovers in mismatch-signal mode
	SyntaxSL   float64 // syntax leftovers in suspicious-line mode
	FuncLint   float64 // functional fix from lint info alone (rare)
	FuncMS     float64 // functional fix in mismatch-signal mode
	FuncSL     float64 // functional fix escalated to suspicious lines
	MEICSyntax float64 // MEIC baseline agent, syntax errors
	MEICFunc   float64 // MEIC baseline agent, functional errors
	RawSyntax  float64 // raw one-shot LLM, syntax errors
	RawFunc    float64 // raw one-shot LLM, functional errors

	SyntaxComplexityPenalty float64 // per complexity level above 1
	FuncComplexityPenalty   float64
	FSMPenalty              float64 // extra factor for functional FSM repair
	CompleteModeFactor      float64 // Table III: whole-code regeneration
	IterationBonus          float64 // marginal gain per extra iteration
	MEICIterationBonus      float64 // MEIC's long loop gains more per iteration
	HallucinationRate       float64 // failed attempts that damage the code
	DamagePenalty           float64 // per extra differing region vs golden

	// ClassFactor adjusts individual fault classes around the base.
	ClassFactor map[string]float64
}

// DefaultProfile returns the calibrated GPT-4-turbo profile.
func DefaultProfile() Profile {
	return Profile{
		SyntaxLint: 0.74,
		SyntaxMS:   0.42,
		SyntaxSL:   0.06,
		FuncLint:   0.08,
		FuncMS:     0.67,
		FuncSL:     0.20,
		MEICSyntax: 0.26,
		MEICFunc:   0.14,
		RawSyntax:  0.52,
		RawFunc:    0.26,

		SyntaxComplexityPenalty: 0.97,
		FuncComplexityPenalty:   0.84,
		FSMPenalty:              0.50,
		CompleteModeFactor:      0.75,
		IterationBonus:          0.05,
		MEICIterationBonus:      0.38,
		HallucinationRate:       0.55,
		DamagePenalty:           0.72,

		ClassFactor: map[string]float64{
			"SynMissingSemi":      1.05,
			"SynKeywordTypo":      1.05,
			"SynBadOperator":      1.00,
			"SynUndeclared":       1.05,
			"SynMalformedLiteral": 1.00,
			"FuncDeclType":        0.80,
			"FuncCondition":       1.00,
			"FuncBitwidth":        1.00,
			"FuncLogic":           1.20,
		},
	}
}

// Prob resolves the success probability for one attempt.
func (p Profile) Prob(stage Stage, mode GenMode, k Knowledge, iteration int) float64 {
	syntax := strings.HasPrefix(k.Class, "Syn")
	var base float64
	switch stage {
	case StageLint:
		base = pick2(syntax, p.SyntaxLint, p.FuncLint)
	case StageMS:
		base = pick2(syntax, p.SyntaxMS, p.FuncMS)
	case StageSL:
		base = pick2(syntax, p.SyntaxSL, p.FuncSL)
	case StageMEIC:
		base = pick2(syntax, p.MEICSyntax, p.MEICFunc)
	default:
		base = pick2(syntax, p.RawSyntax, p.RawFunc)
	}
	if f, ok := p.ClassFactor[k.Class]; ok {
		base *= f
	}
	pen := p.FuncComplexityPenalty
	if syntax {
		pen = p.SyntaxComplexityPenalty
	}
	for i := 1; i < k.Complexity; i++ {
		base *= pen
	}
	if !syntax && k.IsFSM {
		base *= p.FSMPenalty
	}
	if mode == ModeComplete {
		base *= p.CompleteModeFactor
	}
	if iteration > 1 {
		bonus := p.IterationBonus
		if stage == StageMEIC {
			bonus = p.MEICIterationBonus
		}
		base *= 1 + bonus*float64(iteration-1)
	}
	if base > 0.99 {
		base = 0.99
	}
	return base
}

func pick2(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}

// Oracle is the simulated repair LLM. Whether a given (instance, stage)
// pair is solvable is a deterministic hash draw — re-asking the model in
// the same situation gives correlated answers, as with a real LLM at low
// temperature — while hallucination content is drawn from a seeded rng.
type Oracle struct {
	Know    Knowledge
	Profile Profile
	seed    int64
	rng     *rand.Rand
	tried   map[string]bool // wrong patches already emitted (don't repeat)
}

// NewOracle builds an oracle for one benchmark instance.
func NewOracle(k Knowledge, prof Profile, seed int64) *Oracle {
	return &Oracle{
		Know:    k,
		Profile: prof,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed ^ int64(hash64(k.FaultID)))),
		tried:   map[string]bool{},
	}
}

// Complete implements Client.
func (o *Oracle) Complete(req Request) (Response, error) {
	text := req.Text()
	stage := detectStage(text)
	mode := ModePair
	if strings.Contains(text, `"complete":`) && !strings.Contains(text, `"correct":`) {
		mode = ModeComplete
	}
	iteration := parseIteration(text)
	cur := extractDUT(text)
	if cur == "" {
		cur = o.Know.Golden
	}

	reply := o.reply(cur, stage, mode, iteration)
	content := FormatReply(reply)
	if stage == StageMEIC {
		// MEIC does not constrain the output format, and models ramble:
		// long chain-of-thought prose around the eventual JSON. This is
		// the output-token inefficiency that UVLLM's Structured Outputs
		// requirement eliminates (paper Sec. III-D).
		content = meicProse + content + meicEpilogue
	}
	return Response{
		Content:      content,
		InputTokens:  CountTokens(text),
		OutputTokens: CountTokens(content),
	}, nil
}

func (o *Oracle) reply(cur string, stage Stage, mode GenMode, iteration int) *RepairReply {
	orig, patched, ndiff := LineDiff(cur, o.Know.Golden)
	name := o.Know.FaultID
	if i := strings.IndexByte(name, '/'); i > 0 {
		name = name[:i]
	}

	if ndiff == 0 {
		return &RepairReply{
			ModuleName: name,
			Analysis:   "The DUT already matches the specified behavior; no repair is necessary.",
		}
	}

	p := o.Profile.Prob(stage, mode, o.Know, iteration)
	// Accumulated damage makes the repair target harder to see: each extra
	// differing line region beyond the original fault lowers the odds.
	// This is what the rollback mechanism protects against.
	if ndiff > 1 && o.Profile.DamagePenalty > 0 {
		extra := ndiff - 1
		if extra > 4 {
			extra = 4
		}
		for i := 0; i < extra; i++ {
			p *= o.Profile.DamagePenalty
		}
	}
	draw := hash01(fmt.Sprintf("%d|%s|%s|%d", o.seed, o.Know.FaultID, stage, mode))
	if draw < p {
		// Correct repair.
		if mode == ModeComplete {
			return &RepairReply{
				ModuleName: name,
				Analysis:   fmt.Sprintf("The error is caused by a %s defect; regenerating the corrected module.", o.Know.Class),
				Complete:   o.Know.Golden,
			}
		}
		return &RepairReply{
			ModuleName: name,
			Analysis:   fmt.Sprintf("The error is caused by a %s defect in the highlighted region.", o.Know.Class),
			Correct:    []PatchPair{{Original: orig, Patched: patched}},
		}
	}

	// Failed attempt. In the pre-processing stage the model usually
	// silences the lint error while getting the semantics wrong — the
	// repaired code compiles, misbehaves under the UVM testbench, and is
	// then caught by the MS-mode repair loop (paper Result 4: syntax-only
	// errors persisting into the repair stage).
	if stage == StageLint && o.rng.Float64() < 0.8 {
		if mutated := semanticMutation(patched, o.rng); mutated != "" && mutated != patched {
			return &RepairReply{
				ModuleName: name,
				Analysis:   "Fixed the reported syntax error.",
				Correct:    []PatchPair{{Original: orig, Patched: mutated}},
			}
		}
	}
	// Otherwise hallucinate a damaging patch or return a harmless
	// (wrong but neutral) one.
	if o.rng.Float64() < o.Profile.HallucinationRate {
		if bad := o.hallucinate(cur, orig, patched); bad != nil {
			if mode == ModeComplete {
				return &RepairReply{
					ModuleName: name,
					Analysis:   "The root cause appears to be an incorrect expression; rewriting the module.",
					Complete:   strings.Replace(cur, bad.Original, bad.Patched, 1),
				}
			}
			return &RepairReply{
				ModuleName: name,
				Analysis:   "The root cause appears to be an incorrect expression on the suspicious path.",
				Correct:    []PatchPair{*bad},
			}
		}
	}
	// Harmless failure: restate a line unchanged (a no-op "repair").
	line := firstNonEmptyLine(cur)
	if mode == ModeComplete {
		return &RepairReply{
			ModuleName: name,
			Analysis:   "Unable to localize the defect with confidence; returning the reviewed code.",
			Complete:   cur,
		}
	}
	return &RepairReply{
		ModuleName: name,
		Analysis:   "Unable to localize the defect with confidence.",
		Correct:    []PatchPair{{Original: line, Patched: line}},
	}
}

// semanticMutation applies one meaning-changing, syntax-preserving edit to
// a snippet (used for the lint-silencing-but-wrong repair path).
func semanticMutation(snippet string, rng *rand.Rand) string {
	muts := []struct{ from, to string }{
		{" + ", " - "}, {" - ", " + "}, {" & ", " | "}, {" | ", " & "},
		{" ^ ", " & "}, {"1'b1", "1'b0"}, {"1'b0", "1'b1"}, {"==", "!="},
		{" < ", " > "}, {"d1", "d2"}, {"d0", "d1"},
	}
	start := rng.Intn(len(muts))
	for i := 0; i < len(muts); i++ {
		mu := muts[(start+i)%len(muts)]
		if strings.Contains(snippet, mu.from) {
			return strings.Replace(snippet, mu.from, mu.to, 1)
		}
	}
	return ""
}

// hallucinate fabricates a plausible-but-wrong patch on the current source,
// avoiding the true fix and anything already tried.
func (o *Oracle) hallucinate(cur, trueOrig, truePatched string) *PatchPair {
	lines := strings.Split(cur, "\n")
	var candidates []int
	for i, ln := range lines {
		t := strings.TrimSpace(ln)
		if strings.Contains(t, "=") && !strings.HasPrefix(t, "//") && len(t) > 4 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	muts := []struct{ from, to string }{
		{" + ", " - "},
		{" - ", " + "},
		{" & ", " | "},
		{" | ", " & "},
		{"1'b1", "1'b0"},
		{"1'b0", "1'b1"},
		{"==", "!="},
		{" < ", " <= "},
		{"d1", "d2"},
	}
	for attempt := 0; attempt < 16; attempt++ {
		li := candidates[o.rng.Intn(len(candidates))]
		ln := lines[li]
		mu := muts[o.rng.Intn(len(muts))]
		if !strings.Contains(ln, mu.from) {
			continue
		}
		mutated := strings.Replace(ln, mu.from, mu.to, 1)
		if mutated == ln {
			continue
		}
		pp := PatchPair{Original: ln, Patched: mutated}
		key := pp.Original + "\x00" + pp.Patched
		if o.tried[key] {
			continue
		}
		// Never emit the genuine fix by accident.
		if strings.TrimSpace(pp.Original) == strings.TrimSpace(trueOrig) &&
			strings.TrimSpace(pp.Patched) == strings.TrimSpace(truePatched) {
			continue
		}
		o.tried[key] = true
		return &pp
	}
	return nil
}

// LineDiff computes the minimal differing line region between cur and
// golden after trimming the common prefix and suffix, then expands the
// region with context lines until the replacement pair is unambiguous:
// the original text must be non-empty, occur exactly once in cur, and the
// patched text must not silently leave blank lines behind (pure
// insertions and deletions get an anchor line). Applying the returned
// pair with a single string replacement reconstructs golden exactly.
func LineDiff(cur, golden string) (orig, patched string, ndiff int) {
	a := strings.Split(cur, "\n")
	b := strings.Split(golden, "\n")
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	ndiff = len(a) - p - s
	if n := len(b) - p - s; n > ndiff {
		ndiff = n
	}
	if ndiff == 0 {
		return "", "", 0
	}
	loA, hiA := p, len(a)-s
	loB, hiB := p, len(b)-s
	build := func() (string, string) {
		return strings.Join(a[loA:hiA], "\n"), strings.Join(b[loB:hiB], "\n")
	}
	orig, patched = build()
	for {
		ok := strings.TrimSpace(orig) != "" &&
			strings.TrimSpace(patched) != "" &&
			strings.Count(cur, orig) == 1
		if ok {
			break
		}
		switch {
		case loA > 0:
			loA--
			loB--
		case hiA < len(a) && hiB < len(b):
			hiA++
			hiB++
		default:
			// Cannot disambiguate further; return what we have.
			return orig, patched, ndiff
		}
		orig, patched = build()
	}
	return orig, patched, ndiff
}

func extractDUT(text string) string {
	const open = "=== DUT ===\n"
	i := strings.Index(text, open)
	if i < 0 {
		return ""
	}
	rest := text[i+len(open):]
	j := strings.Index(rest, "\n=== Error Information")
	if j < 0 {
		return rest
	}
	return rest[:j]
}

func parseIteration(text string) int {
	i := strings.Index(text, "(iteration ")
	if i < 0 {
		return 1
	}
	n := 0
	for _, c := range text[i+len("(iteration "):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	if n == 0 {
		return 1
	}
	return n
}

const meicProse = `Let me work through this carefully, step by step.

First, I will read the specification to understand the intended behavior
of the module, paying attention to the port directions, the bit widths of
each signal, the reset polarity and the clocking discipline. Second, I
will trace the simulation log to find the first cycle where the design
under test diverges from the expected values, because the earliest
divergence usually points closest to the root cause. Third, I will walk
backward from the mismatching output through every assignment that can
drive it, checking each operator, each constant, and each condition
against the specification. Fourth, I will consider common Verilog
pitfalls: blocking versus non-blocking assignment, incomplete sensitivity
lists, accidental width truncation, operator precedence surprises, and
reset values that do not match the documented power-on state. Fifth, I
will form a hypothesis about the defect and double-check that the
proposed change cannot break any of the passing test cases before
committing to it.

Having followed this procedure on the provided design and log, my
conclusion is below.

`

const meicEpilogue = `

To summarize the reasoning: the simulation divergence, combined with the
specification's description of the expected behavior, points to the
repair given above. If this does not resolve all failures, the next most
likely candidates would be the reset branch and the width of the
intermediate expressions, which I recommend reviewing in a follow-up
iteration with a fresh simulation log.`

func firstNonEmptyLine(src string) string {
	for _, ln := range strings.Split(src, "\n") {
		if strings.TrimSpace(ln) != "" {
			return ln
		}
	}
	return src
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// hash01 maps a string deterministically to [0,1).
func hash01(s string) float64 {
	return float64(hash64(s)%1_000_000) / 1_000_000
}
