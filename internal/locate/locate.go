// Package locate is UVLLM's post-processing localization engine
// (Algorithm 2): it parses the UVM log for mismatch timestamps and signals
// (ErrChk), reads the input values at the mismatch time from the recorded
// waveform, and — when mismatch signals alone have not been enough —
// performs a dynamic slice over the design's data-flow graph to extract
// suspicious code lines (ErrInfoFetch). ErrChk matches the paper's
// PAT_MS pattern with a hand-written linear scanner rather than a
// regexp; the tests keep the regexp as its reference.
package locate

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"uvllm/internal/memo"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// ErrChk parses the UVM log (Algorithm 2, function ErrChk), returning the
// mismatch timestamps MT, mismatch signals MS (deduplicated, first-seen
// order) and the input values IV at the first mismatch time.
func ErrChk(uvmLog string, wave *sim.Waveform) (mt []int, ms []string, iv map[string]uint64) {
	seenT := map[int]bool{}
	seenS := map[string]bool{}
	for i := 0; ; {
		ts, sig, end, ok := nextMS(uvmLog, i)
		if !ok {
			break
		}
		i = end
		t, _ := strconv.Atoi(ts)
		if !seenT[t] {
			seenT[t] = true
			mt = append(mt, t)
		}
		if !seenS[sig] {
			seenS[sig] = true
			ms = append(ms, sig)
		}
	}
	if len(mt) > 0 && wave != nil {
		iv = wave.ValuesAt(mt[0])
	}
	return mt, ms, iv
}

// PAT_MS, Algorithm 2's pattern for a scoreboard mismatch record, is
//
//	UVM_ERROR @ (\d+): \S+ \[SCBD\] mismatch signal=(\w+) expected=0x([0-9a-fA-F]+) actual=0x([0-9a-fA-F]+)
//
// with Go's ASCII classes (\s is [\t\n\f\r ], \w is [0-9A-Za-z_]).
// nextMS recognizes exactly that language without a regexp. After the
// head literal, every variable part is a run of one byte class, and the
// literal that follows each run starts with a byte outside the class, so
// the greedy run is the only way to match and one left-to-right pass
// decides a candidate. \S works on bytes because the five space bytes
// never occur inside a multi-byte UTF-8 sequence, and an invalid byte is
// a non-space rune to a regexp.
const msHead = "UVM_ERROR @ "

// Byte classes of PAT_MS's runs.
const (
	clDigit = 1 << iota
	clWord
	clHex
	clNonSpace
)

// msSteps is PAT_MS after msHead: each step is a run of one or more
// bytes of class cl, then the literal lit.
var msSteps = [...]struct {
	cl  uint8
	lit string
}{
	{clDigit, ": "},                          // timestamp
	{clNonSpace, " [SCBD] mismatch signal="}, // component
	{clWord, " expected=0x"},                 // signal
	{clHex, " actual=0x"},                    // expected value
	{clHex, ""},                              // actual value
}

var msClass = func() (t [256]uint8) {
	for c := range t {
		b := byte(c)
		isDigit := '0' <= b && b <= '9'
		isLetter := 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
		if isDigit {
			t[c] |= clDigit
		}
		if isDigit || isLetter || b == '_' {
			t[c] |= clWord
		}
		if isDigit || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F' {
			t[c] |= clHex
		}
		if !strings.ContainsRune("\t\n\f\r ", rune(b)) {
			t[c] |= clNonSpace
		}
	}
	return t
}()

// nextMS finds the leftmost PAT_MS record of log that starts at or after
// byte i, as FindAllStringSubmatch would, and returns its timestamp
// digits, its signal name and the offset just past it. ok is false when
// no record remains.
func nextMS(log string, i int) (ts, sig string, end int, ok bool) {
	for {
		k := strings.Index(log[i:], msHead)
		if k < 0 {
			return "", "", 0, false
		}
		start := i + k
		if ts, sig, end, ok = matchMS(log, start+len(msHead)); ok {
			return ts, sig, end, true
		}
		// msHead does not overlap itself, so the next candidate starts
		// after this one's first byte at the earliest.
		i = start + 1
	}
}

// matchMS matches msSteps at byte p of s.
func matchMS(s string, p int) (ts, sig string, end int, ok bool) {
	var runs [len(msSteps)]string
	for i, st := range msSteps {
		q := p
		for q < len(s) && msClass[s[q]]&st.cl != 0 {
			q++
		}
		if q == p || !strings.HasPrefix(s[q:], st.lit) {
			return "", "", 0, false
		}
		runs[i] = s[p:q]
		p = q + len(st.lit)
	}
	return runs[0], runs[2], p, true
}

// DefSite is one assignment to a signal in the data-flow graph.
type DefSite struct {
	Line  int
	Deps  []string // data dependencies (RHS identifiers)
	Conds []string // control dependencies (enclosing condition identifiers)
}

// DFG is a per-signal definition map over all modules of a source file.
type DFG struct {
	Defs map[string][]DefSite
}

// BuildDFG constructs the data-flow graph from parsed source. Signals are
// keyed by unqualified name; in hierarchical sources submodule definitions
// merge into the same graph, which is exactly what the repair prompt needs
// (line numbers into the single source file).
func BuildDFG(f *verilog.SourceFile) *DFG {
	g := &DFG{Defs: map[string][]DefSite{}}
	for _, m := range f.Modules {
		for _, it := range m.Items {
			switch v := it.(type) {
			case *verilog.ContAssign:
				g.addDef(v.LHS, v.RHS, nil, v.Line)
			case *verilog.AlwaysBlock:
				g.walkStmt(v.Body, nil)
			case *verilog.Instance:
				// Port connections couple parent and child signals.
				tgt := f.Module(v.ModName)
				for _, c := range v.Conns {
					if c.Expr == nil || tgt == nil {
						continue
					}
					port := tgt.Port(c.Port)
					if port == nil {
						continue
					}
					portRef := &verilog.Ident{Name: port.Name, Line: c.Line}
					if port.Dir == verilog.DirOutput {
						g.addDef(c.Expr, portRef, nil, c.Line)
					} else {
						g.addDef(portRef, c.Expr, nil, c.Line)
					}
				}
			}
		}
	}
	return g
}

func (g *DFG) addDef(lhs verilog.Expr, rhs verilog.Expr, conds []string, line int) {
	deps := verilog.ExprIdents(rhs)
	for _, name := range verilog.LHSTargets(lhs) {
		g.Defs[name] = append(g.Defs[name], DefSite{
			Line:  line,
			Deps:  deps,
			Conds: append([]string(nil), conds...),
		})
	}
}

func (g *DFG) walkStmt(s verilog.Stmt, conds []string) {
	switch v := s.(type) {
	case *verilog.Block:
		for _, st := range v.Stmts {
			g.walkStmt(st, conds)
		}
	case *verilog.Assign:
		g.addDef(v.LHS, v.RHS, conds, v.Line)
	case *verilog.If:
		sub := append(append([]string(nil), conds...), verilog.ExprIdents(v.Cond)...)
		g.walkStmt(v.Then, sub)
		g.walkStmt(v.Else, sub)
	case *verilog.Case:
		sub := append(append([]string(nil), conds...), verilog.ExprIdents(v.Expr)...)
		for _, it := range v.Items {
			g.walkStmt(it.Body, sub)
		}
	case *verilog.For:
		sub := append(append([]string(nil), conds...), verilog.ExprIdents(v.Cond)...)
		if v.Init != nil {
			g.addDef(v.Init.LHS, v.Init.RHS, conds, v.Init.Line)
		}
		if v.Step != nil {
			g.addDef(v.Step.LHS, v.Step.RHS, sub, v.Step.Line)
		}
		g.walkStmt(v.Body, sub)
	}
}

// Slice computes the backward slice from the given signals: the set of
// source lines whose assignments (directly or transitively) feed them, and
// the set of intermediate signals encountered (Algorithm 2's expansion of
// MS with detected fan-in signals).
func (g *DFG) Slice(signals []string, maxLines int) (lines []int, expanded []string) {
	visited := map[string]bool{}
	lineSet := map[int]bool{}
	queue := append([]string(nil), signals...)
	for len(queue) > 0 {
		sig := queue[0]
		queue = queue[1:]
		if visited[sig] {
			continue
		}
		visited[sig] = true
		for _, def := range g.Defs[sig] {
			lineSet[def.Line] = true
			for _, dep := range append(append([]string(nil), def.Deps...), def.Conds...) {
				if !visited[dep] {
					queue = append(queue, dep)
				}
			}
		}
	}
	for ln := range lineSet {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	if maxLines > 0 && len(lines) > maxLines {
		lines = lines[:maxLines]
	}
	inMS := map[string]bool{}
	for _, s := range signals {
		inMS[s] = true
	}
	for sig := range visited {
		if !inMS[sig] && len(g.Defs[sig]) > 0 {
			expanded = append(expanded, sig)
		}
	}
	sort.Strings(expanded)
	return lines, expanded
}

// ErrInfo is the stage output handed to the repair agent.
type ErrInfo struct {
	MismatchTimes   []int
	MismatchSignals []string
	InputValues     map[string]uint64
	SuspiciousLines []int
	Expanded        []string
	SL              bool // true when suspicious-line mode is active
}

// dfgMemo content-addresses built data-flow graphs by source hash. The
// repair loop re-slices the same candidate source on every SL-mode
// iteration, and the template baselines localize against the same faulty
// source per mutation batch; a DFG is read-only after construction, so
// one build serves them all. A stored nil marks unparseable source.
var dfgMemo = memo.New[[sha256.Size]byte, *DFG](256)

// DFGFor returns the memoized data-flow graph of src, or nil when the
// source does not parse. The returned graph is shared: read-only.
func DFGFor(src string) *DFG {
	g, _ := dfgMemo.Do(sha256.Sum256([]byte(src)), func() (*DFG, error) {
		f, perrs := verilog.Parse(src)
		if len(perrs) > 0 {
			return nil, nil
		}
		return BuildDFG(f), nil
	})
	return g
}

// ErrInfoFetch implements Algorithm 2's main function: below the iteration
// threshold it returns mismatch-signal information only (MS mode); at or
// above it, it adds the dynamic slice (SL mode).
func ErrInfoFetch(src, uvmLog string, wave *sim.Waveform, iter, threshold int) ErrInfo {
	mt, ms, iv := ErrChk(uvmLog, wave)
	info := ErrInfo{MismatchTimes: mt, MismatchSignals: ms, InputValues: iv}
	if iter < threshold {
		return info
	}
	info.SL = true
	g := DFGFor(src)
	if g == nil {
		return info
	}
	info.SuspiciousLines, info.Expanded = g.Slice(ms, 24)
	return info
}

// Format renders the error information section of the repair prompt.
func (e ErrInfo) Format(src string) string {
	var b strings.Builder
	if len(e.MismatchTimes) > 0 {
		fmt.Fprintf(&b, "mismatch timestamps: %s\n", joinInts(e.MismatchTimes, 8))
	}
	if len(e.MismatchSignals) > 0 {
		fmt.Fprintf(&b, "mismatch signals: %s\n", strings.Join(e.MismatchSignals, ", "))
	}
	if len(e.InputValues) > 0 && len(e.MismatchTimes) > 0 {
		var names []string
		for n := range e.InputValues {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "signal values at t=%d:", e.MismatchTimes[0])
		for _, n := range names {
			fmt.Fprintf(&b, " %s=0x%x", n, e.InputValues[n])
		}
		b.WriteString("\n")
	}
	if e.SL && len(e.SuspiciousLines) > 0 {
		b.WriteString("suspicious lines (dynamic slice of the mismatch signals):\n")
		ls := strings.Split(src, "\n")
		for _, ln := range e.SuspiciousLines {
			if ln-1 >= 0 && ln-1 < len(ls) {
				fmt.Fprintf(&b, "  L%d: %s\n", ln, strings.TrimSpace(ls[ln-1]))
			}
		}
		if len(e.Expanded) > 0 {
			fmt.Fprintf(&b, "additional suspicious signals: %s\n", strings.Join(e.Expanded, ", "))
		}
	}
	if b.Len() == 0 {
		b.WriteString("(no scoreboard mismatches parsed)\n")
	}
	return b.String()
}

func joinInts(xs []int, max int) string {
	var parts []string
	for i, x := range xs {
		if i == max {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, strconv.Itoa(x))
	}
	return strings.Join(parts, ", ")
}
