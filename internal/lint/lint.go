// Package lint is a static Verilog linter playing the role Verilator plays
// in the UVLLM paper (Sec. III-A): it reports syntax errors and a set of
// Verilator-style warnings, several of which ("focused timing-related
// warnings") are mechanically fixable by the pre-processing script
// templates of Algorithm 1.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"uvllm/internal/verilog"
)

// Severity distinguishes errors (must be repaired by the LLM) from
// warnings (candidates for script templates).
type Severity int

// Severities.
const (
	SevError Severity = iota
	SevWarning
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "Error"
	}
	return "Warning"
}

// Diagnostic codes, mirroring Verilator's naming where one exists.
const (
	CodeSyntax     = "SYNTAX"     // parse error
	CodeUndeclared = "UNDECLARED" // identifier used without declaration
	CodeRedeclared = "REDECLARED" // name declared twice
	CodeCombDelay  = "COMBDLY"    // non-blocking assignment in combinational block
	CodeBlockSeq   = "BLKSEQ"     // blocking assignment in sequential block
	CodeWidth      = "WIDTH"      // assignment width mismatch
	CodeLatch      = "LATCH"      // inferred latch in combinational block
	CodeCaseDef    = "CASEINCOMPLETE"
	CodeSens       = "INCOMPLETESENS" // combinational list missing a read signal
	CodeSyncAsync  = "SYNCASYNC"      // async-style reset missing from edge list
	CodeMultiDrive = "MULTIDRIVEN"
	CodeUndriven   = "UNDRIVEN"
	CodeUnused     = "UNUSED"
	CodeProcWire   = "PROCASSWIRE" // procedural assignment to a wire
	CodeContReg    = "CONTASSREG"  // continuous assignment to a reg
	CodePinUnknown = "PINNOTFOUND" // instance pin does not exist on module
	CodePinMissing = "PINMISSING"  // module port left unconnected
	CodePinWidth   = "PINWIDTH"    // instance pin width mismatch
)

// Diag is one linter finding.
type Diag struct {
	Severity Severity
	Code     string
	Line     int
	Col      int
	Signal   string // primary signal involved, if any
	Msg      string
}

// String renders the diagnostic in Verilator's %Severity-Code format.
func (d Diag) String() string {
	return fmt.Sprintf("%%%s-%s: %d:%d: %s", d.Severity, d.Code, d.Line, d.Col, d.Msg)
}

// Report is the result of linting one source file.
type Report struct {
	Diags []Diag
}

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// HasSyntaxError reports whether the source failed to parse: a CodeSyntax
// error is among the diagnostics.
func (r *Report) HasSyntaxError() bool {
	for _, d := range r.Diags {
		if d.Severity == SevError && d.Code == CodeSyntax {
			return true
		}
	}
	return false
}

// Clean reports whether there are no errors and no focused warnings.
func (r *Report) Clean() bool {
	return len(r.Errors()) == 0 && len(r.FocusedWarnings()) == 0
}

// FocusedWarnings returns the timing-related warnings that Algorithm 1
// repairs with script templates (the paper's running example is COMBDLY:
// "<=" in combinational logic replaced by "=").
func (r *Report) FocusedWarnings() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Severity != SevWarning {
			continue
		}
		switch d.Code {
		case CodeCombDelay, CodeBlockSeq, CodeSens, CodeSyncAsync:
			out = append(out, d)
		}
	}
	return out
}

// Format renders the report as a Verilator-like log, one line per finding.
func (r *Report) Format() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Lint parses and checks src, returning all diagnostics.
func Lint(src string) *Report { return LintFile(verilog.Parse(src)) }

// LintFile checks a parsed file: f and errs are what verilog.Parse
// returned for one source. Each syntax error becomes a SYNTAX
// diagnostic. LintFile only reads f, so one parse can serve the linter,
// the synthesizer and the compiler.
func LintFile(f *verilog.SourceFile, errs []verilog.SyntaxError) *Report {
	r := &Report{}
	for _, e := range errs {
		r.Diags = append(r.Diags, Diag{
			Severity: SevError, Code: CodeSyntax,
			Line: e.Line, Col: e.Col, Msg: e.Msg,
		})
	}
	// Semantic checks only make sense on a syntactically valid file: a
	// recovered AST after errors produces noisy follow-on findings that a
	// real linter would suppress too.
	if len(errs) == 0 {
		for _, m := range f.Modules {
			lintModule(r, f, m)
		}
	}
	sortDiags(r.Diags)
	return r
}

func sortDiags(ds []Diag) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		return ds[i].Code < ds[j].Code
	})
}

// symKind classifies a declared name.
type symKind int

const (
	symWire symKind = iota
	symReg
	symInteger
	symParam
)

type symbol struct {
	name  string
	kind  symKind
	width int
	isMem bool
	port  *verilog.Port // nil for non-ports
	line  int
}

type modScope struct {
	mod  *verilog.Module
	env  verilog.ConstEnv
	syms map[string]*symbol
}

func buildScope(r *Report, m *verilog.Module) *modScope {
	sc := &modScope{mod: m, syms: map[string]*symbol{}}
	env, err := verilog.ModuleParams(m)
	if err != nil {
		env = verilog.ConstEnv{}
	}
	sc.env = env

	declare := func(s *symbol) {
		if old, dup := sc.syms[s.name]; dup {
			// A port redeclared as reg/wire in the body is normal
			// Verilog-1995 style, not a redeclaration.
			if old.port != nil && s.port == nil {
				old.kind = s.kind
				if s.width > 1 || old.width == 0 {
					old.width = s.width
				}
				return
			}
			r.Diags = append(r.Diags, Diag{
				Severity: SevError, Code: CodeRedeclared, Line: s.line,
				Signal: s.name,
				Msg:    fmt.Sprintf("%q previously declared at line %d", s.name, old.line),
			})
			return
		}
		sc.syms[s.name] = s
	}

	for _, p := range m.Ports {
		w, werr := verilog.RangeWidth(p.Range, env)
		if werr != nil {
			w = 1
		}
		kind := symWire
		if p.IsReg {
			kind = symReg
		}
		declare(&symbol{name: p.Name, kind: kind, width: w, port: p, line: p.Line})
	}
	for _, it := range m.Items {
		switch v := it.(type) {
		case *verilog.ParamDecl:
			declare(&symbol{name: v.Name, kind: symParam, width: 32, line: v.Line})
		case *verilog.NetDecl:
			w, werr := verilog.RangeWidth(v.Range, env)
			if werr != nil {
				w = 1
			}
			kind := symWire
			switch v.Kind {
			case verilog.KindReg:
				kind = symReg
			case verilog.KindInteger:
				kind = symInteger
				w = 32
			}
			for _, n := range v.Names {
				declare(&symbol{
					name: n.Name, kind: kind, width: w,
					isMem: n.ArrayRange != nil, line: n.Line,
				})
			}
		}
	}
	return sc
}

func lintModule(r *Report, f *verilog.SourceFile, m *verilog.Module) {
	sc := buildScope(r, m)

	reads := map[string]int{}    // name -> first read line
	drives := map[string][]int{} // name -> driver lines

	noteRead := func(e verilog.Expr) {
		verilog.WalkExpr(e, func(x verilog.Expr) bool {
			if id, ok := x.(*verilog.Ident); ok {
				if _, ok := sc.syms[id.Name]; !ok {
					r.Diags = append(r.Diags, Diag{
						Severity: SevError, Code: CodeUndeclared,
						Line: id.Line, Signal: id.Name,
						Msg: fmt.Sprintf("signal %q is used but not declared", id.Name),
					})
					// Declare it to suppress repeats.
					sc.syms[id.Name] = &symbol{name: id.Name, kind: symWire, width: 1, line: id.Line}
					return true
				}
				if _, seen := reads[id.Name]; !seen {
					reads[id.Name] = id.Line
				}
			}
			return true
		})
	}
	noteDrive := func(e verilog.Expr, line int) {
		for _, name := range verilog.LHSTargets(e) {
			if _, ok := sc.syms[name]; !ok {
				r.Diags = append(r.Diags, Diag{
					Severity: SevError, Code: CodeUndeclared,
					Line: line, Signal: name,
					Msg: fmt.Sprintf("signal %q is assigned but not declared", name),
				})
				sc.syms[name] = &symbol{name: name, kind: symReg, width: 1, line: line}
				continue
			}
			drives[name] = append(drives[name], line)
		}
		// Index/part-select expressions on the LHS are reads.
		switch v := e.(type) {
		case *verilog.Index:
			noteRead(v.Index)
		case *verilog.PartSelect:
			noteRead(v.MSB)
			noteRead(v.LSB)
		case *verilog.Concat:
			for _, p := range v.Parts {
				switch pv := p.(type) {
				case *verilog.Index:
					noteRead(pv.Index)
				case *verilog.PartSelect:
					noteRead(pv.MSB)
					noteRead(pv.LSB)
				}
			}
		}
	}

	for _, it := range m.Items {
		switch v := it.(type) {
		case *verilog.NetDecl:
			for _, n := range v.Names {
				if n.Init != nil {
					noteRead(n.Init)
					drives[n.Name] = append(drives[n.Name], n.Line)
				}
			}
		case *verilog.ContAssign:
			lintContAssign(r, sc, v)
			noteDrive(v.LHS, v.Line)
			noteRead(v.RHS)
		case *verilog.AlwaysBlock:
			lintAlways(r, sc, v, noteRead, noteDrive)
		case *verilog.InitialBlock:
			verilog.WalkStmt(v.Body, func(s verilog.Stmt) bool {
				if a, ok := s.(*verilog.Assign); ok {
					noteDrive(a.LHS, a.Line)
					noteRead(a.RHS)
				}
				return true
			})
		case *verilog.Instance:
			lintInstance(r, f, sc, v, noteRead, noteDrive)
		}
	}

	lintDrivers(r, sc, m, reads, drives)
}

func lintContAssign(r *Report, sc *modScope, a *verilog.ContAssign) {
	for _, name := range verilog.LHSTargets(a.LHS) {
		if s, ok := sc.syms[name]; ok && s.kind == symReg {
			r.Diags = append(r.Diags, Diag{
				Severity: SevError, Code: CodeContReg, Line: a.Line, Signal: name,
				Msg: fmt.Sprintf("continuous assignment to reg %q (declare it as wire)", name),
			})
		}
	}
	checkAssignWidth(r, sc, a.LHS, a.RHS, a.Line)
}

func lintAlways(r *Report, sc *modScope, ab *verilog.AlwaysBlock,
	noteRead func(verilog.Expr), noteDrive func(verilog.Expr, int)) {

	edged := ab.Sens != nil && ab.Sens.Edged()

	// Collect reads/drives and assignment-style findings.
	verilog.WalkStmt(ab.Body, func(s verilog.Stmt) bool {
		switch v := s.(type) {
		case *verilog.Assign:
			noteDrive(v.LHS, v.Line)
			noteRead(v.RHS)
			targets := verilog.LHSTargets(v.LHS)
			var first string
			if len(targets) > 0 {
				first = targets[0]
			}
			for _, name := range targets {
				if sym, ok := sc.syms[name]; ok && sym.kind == symWire {
					r.Diags = append(r.Diags, Diag{
						Severity: SevError, Code: CodeProcWire, Line: v.Line, Signal: name,
						Msg: fmt.Sprintf("procedural assignment to wire %q (declare it as reg)", name),
					})
				}
			}
			if !edged && !v.Blocking {
				r.Diags = append(r.Diags, Diag{
					Severity: SevWarning, Code: CodeCombDelay, Line: v.Line, Signal: first,
					Msg: "non-blocking assignment '<=' in combinational block (use '=')",
				})
			}
			if edged && v.Blocking {
				// Loop-index updates are conventional blocking even in
				// sequential blocks; only flag non-integer targets.
				if sym, ok := sc.syms[first]; !ok || sym.kind != symInteger {
					r.Diags = append(r.Diags, Diag{
						Severity: SevWarning, Code: CodeBlockSeq, Line: v.Line, Signal: first,
						Msg: "blocking assignment '=' in sequential block (use '<=')",
					})
				}
			}
			checkAssignWidth(r, sc, v.LHS, v.RHS, v.Line)
		case *verilog.If:
			noteRead(v.Cond)
		case *verilog.Case:
			noteRead(v.Expr)
			for _, it := range v.Items {
				for _, e := range it.Exprs {
					noteRead(e)
				}
			}
			if !hasDefault(v) && !edged {
				r.Diags = append(r.Diags, Diag{
					Severity: SevWarning, Code: CodeCaseDef, Line: v.Line,
					Msg: "case statement without default in combinational block",
				})
			}
		case *verilog.For:
			if v.Init != nil {
				noteDrive(v.Init.LHS, v.Init.Line)
				noteRead(v.Init.RHS)
			}
			noteRead(v.Cond)
			if v.Step != nil {
				noteRead(v.Step.RHS)
			}
		}
		return true
	})

	if !edged {
		lintCombSensitivity(r, sc, ab)
		lintLatch(r, sc, ab)
	} else {
		lintAsyncReset(r, sc, ab)
	}
}

func hasDefault(c *verilog.Case) bool {
	for _, it := range c.Items {
		if it.Exprs == nil {
			return true
		}
	}
	return false
}

// lintCombSensitivity flags combinational blocks with explicit sensitivity
// lists that omit a signal read inside the body.
func lintCombSensitivity(r *Report, sc *modScope, ab *verilog.AlwaysBlock) {
	if ab.Sens == nil || ab.Sens.Star {
		return
	}
	listed := map[string]bool{}
	for _, it := range ab.Sens.Items {
		listed[it.Signal] = true
	}
	// Signals read by the body.
	read := map[string]int{}
	assigned := map[string]bool{}
	verilog.WalkStmt(ab.Body, func(s verilog.Stmt) bool {
		switch v := s.(type) {
		case *verilog.Assign:
			for _, n := range verilog.LHSTargets(v.LHS) {
				assigned[n] = true
			}
			noteExprReads(sc, v.RHS, read)
		case *verilog.If:
			noteExprReads(sc, v.Cond, read)
		case *verilog.Case:
			noteExprReads(sc, v.Expr, read)
		case *verilog.For:
			noteExprReads(sc, v.Cond, read)
		}
		return true
	})
	var missing []string
	for name, line := range read {
		if !listed[name] && !assigned[name] {
			missing = append(missing, fmt.Sprintf("%s(line %d)", name, line))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.Diags = append(r.Diags, Diag{
			Severity: SevWarning, Code: CodeSens, Line: ab.Line,
			Msg: fmt.Sprintf("sensitivity list missing signals read in block: %s (use @(*))",
				strings.Join(missing, ", ")),
		})
	}
}

func noteExprReads(sc *modScope, e verilog.Expr, read map[string]int) {
	verilog.WalkExpr(e, func(x verilog.Expr) bool {
		if id, ok := x.(*verilog.Ident); ok {
			if s, ok := sc.syms[id.Name]; ok && s.kind != symParam && s.kind != symInteger {
				if _, seen := read[id.Name]; !seen {
					read[id.Name] = id.Line
				}
			}
		}
		return true
	})
}

// lintLatch reports combinational blocks where a target is assigned in some
// but not all branches of a top-level if without else.
func lintLatch(r *Report, sc *modScope, ab *verilog.AlwaysBlock) {
	assignedAlways := stmtAssignsAll(ab.Body)
	assignedSomewhere := map[string]int{}
	verilog.WalkStmt(ab.Body, func(s verilog.Stmt) bool {
		if a, ok := s.(*verilog.Assign); ok {
			for _, n := range verilog.LHSTargets(a.LHS) {
				if _, seen := assignedSomewhere[n]; !seen {
					assignedSomewhere[n] = a.Line
				}
			}
		}
		return true
	})
	var names []string
	for n := range assignedSomewhere {
		if !assignedAlways[n] {
			if s, ok := sc.syms[n]; ok && s.kind == symInteger {
				continue
			}
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		r.Diags = append(r.Diags, Diag{
			Severity: SevWarning, Code: CodeLatch, Line: assignedSomewhere[n], Signal: n,
			Msg: fmt.Sprintf("latch inferred for %q (not assigned in all paths of combinational block)", n),
		})
	}
}

// stmtAssignsAll computes the set of signals assigned on every control path
// through s.
func stmtAssignsAll(s verilog.Stmt) map[string]bool {
	switch v := s.(type) {
	case *verilog.Assign:
		out := map[string]bool{}
		for _, n := range verilog.LHSTargets(v.LHS) {
			out[n] = true
		}
		return out
	case *verilog.Block:
		out := map[string]bool{}
		for _, st := range v.Stmts {
			for n := range stmtAssignsAll(st) {
				out[n] = true
			}
		}
		return out
	case *verilog.If:
		if v.Else == nil {
			return map[string]bool{}
		}
		a, b := stmtAssignsAll(v.Then), stmtAssignsAll(v.Else)
		out := map[string]bool{}
		for n := range a {
			if b[n] {
				out[n] = true
			}
		}
		return out
	case *verilog.Case:
		var sets []map[string]bool
		hasDef := false
		for _, it := range v.Items {
			sets = append(sets, stmtAssignsAll(it.Body))
			if it.Exprs == nil {
				hasDef = true
			}
		}
		if !hasDef || len(sets) == 0 {
			return map[string]bool{}
		}
		out := sets[0]
		for _, s2 := range sets[1:] {
			for n := range out {
				if !s2[n] {
					delete(out, n)
				}
			}
		}
		return out
	case *verilog.For:
		// Loop bodies are conservatively treated as always executing once
		// (benchmark loops have constant bounds > 0).
		return stmtAssignsAll(v.Body)
	}
	return map[string]bool{}
}

// lintAsyncReset flags sequential blocks whose body tests a reset-style
// signal that is not in the edge sensitivity list — the "wrong sensitivity"
// fault of paper Table I (always @(posedge clk) with if (!rst_n) ...).
func lintAsyncReset(r *Report, sc *modScope, ab *verilog.AlwaysBlock) {
	inList := map[string]bool{}
	for _, it := range ab.Sens.Items {
		inList[it.Signal] = true
	}
	body := ab.Body
	if blk, ok := body.(*verilog.Block); ok && len(blk.Stmts) > 0 {
		body = blk.Stmts[0]
	}
	iff, ok := body.(*verilog.If)
	if !ok {
		return
	}
	sig, active := resetCondSignal(iff.Cond)
	if sig == "" || inList[sig] {
		return
	}
	if !looksLikeReset(sig) {
		return
	}
	edge := "negedge"
	if active {
		edge = "posedge"
	}
	r.Diags = append(r.Diags, Diag{
		Severity: SevWarning, Code: CodeSyncAsync, Line: ab.Line, Signal: sig,
		Msg: fmt.Sprintf("reset %q tested in sequential block but missing from sensitivity list (add %s %s)", sig, edge, sig),
	})
}

// resetCondSignal recognizes !sig, ~sig, sig==0 (active-low, returns false)
// and bare sig or sig==1 (active-high, returns true).
func resetCondSignal(e verilog.Expr) (string, bool) {
	switch v := e.(type) {
	case *verilog.Unary:
		if v.Op == "!" || v.Op == "~" {
			if id, ok := v.X.(*verilog.Ident); ok {
				return id.Name, false
			}
		}
	case *verilog.Binary:
		if v.Op == "==" {
			id, ok1 := v.X.(*verilog.Ident)
			num, ok2 := v.Y.(*verilog.Number)
			if ok1 && ok2 {
				return id.Name, num.Value != 0
			}
		}
	case *verilog.Ident:
		return v.Name, true
	}
	return "", false
}

func looksLikeReset(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "rst") || strings.Contains(n, "reset") || strings.Contains(n, "clear")
}

// lintInstance checks named connections against the instantiated module.
func lintInstance(r *Report, f *verilog.SourceFile, sc *modScope, inst *verilog.Instance,
	noteRead func(verilog.Expr), noteDrive func(verilog.Expr, int)) {

	target := f.Module(inst.ModName)
	if target == nil {
		r.Diags = append(r.Diags, Diag{
			Severity: SevError, Code: CodePinUnknown, Line: inst.Line,
			Msg: fmt.Sprintf("instantiated module %q not found", inst.ModName),
		})
		return
	}
	env, err := verilog.ModuleParams(target)
	if err != nil {
		env = verilog.ConstEnv{}
	}
	connected := map[string]bool{}
	for _, c := range inst.Conns {
		if strings.HasPrefix(c.Port, "$") {
			// Ordinal connection: map by position.
			idx := 0
			fmt.Sscanf(c.Port, "$%d", &idx)
			if idx < len(target.Ports) {
				checkPin(r, sc, env, target.Ports[idx], c, inst, noteRead, noteDrive)
				connected[target.Ports[idx].Name] = true
			}
			continue
		}
		port := target.Port(c.Port)
		if port == nil {
			r.Diags = append(r.Diags, Diag{
				Severity: SevError, Code: CodePinUnknown, Line: c.Line, Signal: c.Port,
				Msg: fmt.Sprintf("module %q has no port %q", inst.ModName, c.Port),
			})
			continue
		}
		connected[port.Name] = true
		checkPin(r, sc, env, port, c, inst, noteRead, noteDrive)
	}
	for _, p := range target.Ports {
		if !connected[p.Name] {
			r.Diags = append(r.Diags, Diag{
				Severity: SevWarning, Code: CodePinMissing, Line: inst.Line, Signal: p.Name,
				Msg: fmt.Sprintf("port %q of %s left unconnected", p.Name, inst.ModName),
			})
		}
	}
}

func checkPin(r *Report, sc *modScope, env verilog.ConstEnv, port *verilog.Port,
	c verilog.PortConn, inst *verilog.Instance,
	noteRead func(verilog.Expr), noteDrive func(verilog.Expr, int)) {

	if c.Expr == nil {
		return
	}
	if port.Dir == verilog.DirOutput {
		noteDrive(c.Expr, c.Line)
	} else {
		noteRead(c.Expr)
	}
	pw, err := verilog.RangeWidth(port.Range, env)
	if err != nil {
		return
	}
	ew := exprWidth(sc, c.Expr)
	if ew > 0 && ew != pw {
		r.Diags = append(r.Diags, Diag{
			Severity: SevWarning, Code: CodePinWidth, Line: c.Line, Signal: port.Name,
			Msg: fmt.Sprintf("port %q of %s is %d bits but connection is %d bits",
				port.Name, inst.ModName, pw, ew),
		})
	}
}

// lintDrivers reports multiply-driven, undriven and unused signals.
func lintDrivers(r *Report, sc *modScope, m *verilog.Module, reads map[string]int, drives map[string][]int) {
	var names []string
	for n := range sc.syms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := sc.syms[n]
		if s.kind == symParam {
			continue
		}
		isInput := s.port != nil && s.port.Dir == verilog.DirInput
		isOutput := s.port != nil && s.port.Dir == verilog.DirOutput
		dl := drives[n]
		_, isRead := reads[n]

		if !isInput && len(dl) == 0 && (isRead || isOutput) {
			r.Diags = append(r.Diags, Diag{
				Severity: SevWarning, Code: CodeUndriven, Line: s.line, Signal: n,
				Msg: fmt.Sprintf("signal %q is read but never driven", n),
			})
		}
		if !isRead && !isOutput && len(dl) > 0 && s.kind != symInteger {
			r.Diags = append(r.Diags, Diag{
				Severity: SevWarning, Code: CodeUnused, Line: s.line, Signal: n,
				Msg: fmt.Sprintf("signal %q is driven but never read", n),
			})
		}
		if isInput && len(dl) > 0 {
			r.Diags = append(r.Diags, Diag{
				Severity: SevError, Code: CodeMultiDrive, Line: dl[0], Signal: n,
				Msg: fmt.Sprintf("input port %q is driven inside the module", n),
			})
		}
	}
}

// exprWidth computes the bit width of e under the module scope, or 0 when
// indeterminate (unsized literals, unknown signals).
func exprWidth(sc *modScope, e verilog.Expr) int {
	switch v := e.(type) {
	case *verilog.Number:
		return v.Width
	case *verilog.Ident:
		if s, ok := sc.syms[v.Name]; ok {
			if s.kind == symParam {
				return 0 // parameters adapt to context
			}
			return s.width
		}
		return 0
	case *verilog.Unary:
		switch v.Op {
		case "!", "&", "|", "^", "~&", "~|", "~^":
			return 1
		}
		return exprWidth(sc, v.X)
	case *verilog.Binary:
		switch v.Op {
		case "==", "!=", "===", "!==", "<", ">", "<=", ">=", "&&", "||":
			return 1
		case "<<", ">>", "<<<", ">>>":
			return exprWidth(sc, v.X)
		}
		a, b := exprWidth(sc, v.X), exprWidth(sc, v.Y)
		if a == 0 || b == 0 {
			return 0
		}
		if a > b {
			return a
		}
		return b
	case *verilog.Ternary:
		a, b := exprWidth(sc, v.Then), exprWidth(sc, v.Else)
		if a == 0 || b == 0 {
			return 0
		}
		if a > b {
			return a
		}
		return b
	case *verilog.Index:
		if id, ok := v.X.(*verilog.Ident); ok {
			if s, ok := sc.syms[id.Name]; ok && s.isMem {
				return s.width
			}
		}
		return 1
	case *verilog.PartSelect:
		msb, err1 := verilog.EvalConst(v.MSB, sc.env)
		lsb, err2 := verilog.EvalConst(v.LSB, sc.env)
		if err1 != nil || err2 != nil {
			return 0
		}
		w := msb - lsb
		if w < 0 {
			w = -w
		}
		return int(w) + 1
	case *verilog.Concat:
		total := 0
		for _, p := range v.Parts {
			w := exprWidth(sc, p)
			if w == 0 {
				return 0
			}
			total += w
		}
		return total
	case *verilog.Repl:
		n, err := verilog.EvalConst(v.Count, sc.env)
		if err != nil {
			return 0
		}
		w := exprWidth(sc, v.Value)
		if w == 0 {
			return 0
		}
		return int(n) * w
	}
	return 0
}

// checkAssignWidth emits a WIDTH warning when both sides have known,
// different widths. Single-bit vs unsized and parameter-typed operands are
// exempt, matching Verilator's pragmatic defaults.
func checkAssignWidth(r *Report, sc *modScope, lhs, rhs verilog.Expr, line int) {
	lw := exprWidth(sc, lhs)
	rw := exprWidth(sc, rhs)
	if lw == 0 || rw == 0 || lw == rw {
		return
	}
	// Adding two N-bit values into an N-bit target is idiomatic RTL; only
	// report when widths differ by declaration, i.e. both sides are simple
	// signals/selects, or the RHS is wider than the LHS by a literal's
	// declared width.
	if !simpleOperand(rhs) && rw <= lw {
		return
	}
	if !simpleOperand(rhs) && !simpleOperand(lhs) {
		return
	}
	var sig string
	if t := verilog.LHSTargets(lhs); len(t) > 0 {
		sig = t[0]
	}
	r.Diags = append(r.Diags, Diag{
		Severity: SevWarning, Code: CodeWidth, Line: line, Signal: sig,
		Msg: fmt.Sprintf("assignment width mismatch: LHS is %d bits, RHS is %d bits", lw, rw),
	})
}

func simpleOperand(e verilog.Expr) bool {
	switch e.(type) {
	case *verilog.Ident, *verilog.Number, *verilog.Index, *verilog.PartSelect:
		return true
	}
	return false
}
