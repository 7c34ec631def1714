package baseline

import (
	"regexp"
	"strconv"
	"strings"

	"uvllm/internal/faultgen"
	"uvllm/internal/locate"
)

// Strider reimplements the mechanism of Strider (Yang et al., TCAD 2024):
// signal-value-transition-guided defect repair. It localizes suspicious
// lines from observed mismatches (reusing the same dynamic-slicing engine
// UVLLM uses), then searches template mutations of those lines, accepting
// the first candidate that passes its own random testbench. It handles
// functional defects only — syntax-broken input cannot be simulated.
type Strider struct {
	Sim SimServices
}

// NewStrider builds the baseline.
func NewStrider() *Strider { return &Strider{} }

// Repair runs the search on one benchmark instance, trying 16 candidate
// mutations.
func (x *Strider) Repair(f *faultgen.Fault) Outcome {
	return templateSearch(f, 16, false, x.Sim)
}

// RTLRepair reimplements the mechanism of RTL-Repair (Laeufer et al.,
// ASPLOS 2024): template-based repair with a small solver-guided search.
// Its template set additionally covers declaration widths and part-select
// bounds, which is why the paper finds it strongest on bitwidth defects.
type RTLRepair struct {
	Sim SimServices
}

// NewRTLRepair builds the baseline.
func NewRTLRepair() *RTLRepair { return &RTLRepair{} }

// Repair runs the search on one benchmark instance, trying 28 candidate
// mutations.
func (x *RTLRepair) Repair(f *faultgen.Fault) Outcome {
	return templateSearch(f, 28, true, x.Sim)
}

// templateBenchN is the vector count of a template tool's acceptance
// bench.
const templateBenchN = 8

// templateSearch tries up to budget template mutations of f's suspicious
// lines, accepting the first that passes a templateBenchN-vector bench.
func templateSearch(f *faultgen.Fault, budget int, declTemplates bool, svc SimServices) Outcome {
	m := f.Meta()
	out := Outcome{Final: f.Source}

	// Template tools cannot start from code that does not compile. The
	// syntax gates read the job's parses (svc.Cache), which the own-bench
	// compiles then reuse; they run no semantic lint.
	if _, errs := svc.Cache.Parse(f.Source); len(errs) > 0 {
		return out
	}
	pass, log, n := RandomOwnBench(f.Source, m, templateBenchN, 5, svc)
	out.Seconds += defaultCost.Sim(n)
	if pass {
		out.Hit = true // escaped detection: counts as a hit, not a fix
		return out
	}

	// Localize suspicious lines from the mismatch log. Template tools use
	// a depth-1 localization (direct definitions of the mismatching
	// signals) -- shallower than UVLLM's transitive dynamic slice, which
	// is part of why their repair scope is narrower.
	_, ms, _ := locate.ErrChk(log, nil)
	suspicious := map[int]bool{}
	if g := locate.DFGFor(f.Source); g != nil && len(ms) > 0 {
		for _, sig := range ms {
			for _, def := range g.Defs[sig] {
				suspicious[def.Line] = true
			}
		}
	}

	tried := 0
	for _, cand := range enumerateMutations(f.Source, suspicious, declTemplates) {
		if tried >= budget {
			break
		}
		tried++
		if _, errs := svc.Cache.Parse(cand); len(errs) > 0 {
			continue
		}
		ok, _, n := RandomOwnBench(cand, m, templateBenchN, 5, svc)
		out.Seconds += defaultCost.Sim(n)
		if ok {
			out.Hit = true
			out.Final = cand
			return out
		}
	}
	return out
}

var (
	decConstTplRe = regexp.MustCompile(`(\d+)'d(\d+)`)
	binConstTplRe = regexp.MustCompile(`(\d+)'b([01]+)`)
	rangeTplRe    = regexp.MustCompile(`\[(\d+):(\d+)\]`)
)

// enumerateMutations yields candidate repairs: operator swaps, constant
// tweaks and (for RTL-Repair) range adjustments, applied to suspicious
// lines first and the rest of the behavioral code after.
func enumerateMutations(src string, suspicious map[int]bool, declTemplates bool) []string {
	ls := strings.Split(src, "\n")
	order := make([]int, 0, len(ls))
	for i := range ls {
		if suspicious[i+1] {
			order = append(order, i)
		}
	}
	for i := range ls {
		if !suspicious[i+1] {
			order = append(order, i)
		}
	}
	var out []string
	emitLine := func(li int, newLine string) {
		cp := append([]string(nil), ls...)
		cp[li] = newLine
		out = append(out, strings.Join(cp, "\n"))
	}
	opSwaps := []struct{ from, to string }{
		{" + ", " - "}, {" - ", " + "}, {" & ", " | "}, {" | ", " & "},
		{" ^ ", " | "}, {" & ", " ^ "}, {" < ", " > "}, {" > ", " < "},
		{" < ", " <= "}, {"==", "!="}, {"!=", "=="},
	}
	for _, li := range order {
		line := ls[li]
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") || strings.HasPrefix(t, "module") {
			continue
		}
		isDecl := strings.HasPrefix(t, "input") || strings.HasPrefix(t, "output") ||
			strings.HasPrefix(t, "wire") || strings.HasPrefix(t, "reg")
		if !isDecl {
			for _, sw := range opSwaps {
				if i := strings.Index(line, sw.from); i >= 0 {
					emitLine(li, line[:i]+sw.to+line[i+len(sw.from):])
				}
			}
			// Constant tweaks: V-1, V+1, 0<->1.
			if mt := decConstTplRe.FindStringSubmatchIndex(line); mt != nil {
				v, _ := strconv.ParseUint(line[mt[4]:mt[5]], 10, 64)
				if v > 0 {
					emitLine(li, line[:mt[4]]+strconv.FormatUint(v-1, 10)+line[mt[5]:])
				}
				emitLine(li, line[:mt[4]]+strconv.FormatUint(v+1, 10)+line[mt[5]:])
			}
			if mt := binConstTplRe.FindStringSubmatchIndex(line); mt != nil {
				digits := line[mt[4]:mt[5]]
				for bit := 0; bit < len(digits); bit++ {
					fl := []byte(digits)
					if fl[bit] == '0' {
						fl[bit] = '1'
					} else {
						fl[bit] = '0'
					}
					emitLine(li, line[:mt[4]]+string(fl)+line[mt[5]:])
				}
			}
			// Sensitivity repair template.
			if strings.Contains(line, "@(posedge clk)") && strings.Contains(src, "rst_n") {
				emitLine(li, strings.Replace(line, "@(posedge clk)", "@(posedge clk or negedge rst_n)", 1))
			}
		}
		if declTemplates {
			// RTL-Repair's width templates on any line with a range.
			for _, mt := range rangeTplRe.FindAllStringSubmatchIndex(line, -1) {
				msb, _ := strconv.Atoi(line[mt[2]:mt[3]])
				emitLine(li, line[:mt[2]]+strconv.Itoa(msb+1)+line[mt[3]:])
				if msb > 1 {
					emitLine(li, line[:mt[2]]+strconv.Itoa(msb-1)+line[mt[3]:])
				}
			}
		}
	}
	return out
}
