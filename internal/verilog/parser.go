package verilog

import (
	"fmt"
)

// SyntaxError is a parse diagnostic with position information, shaped like
// the error records a linter such as Verilator emits.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: syntax error: %s", e.Line, e.Col, e.Msg)
}

// Parser is a recursive-descent parser with panic-free error recovery: on a
// syntax error it records a SyntaxError and resynchronizes at the next
// statement boundary so that one broken line does not hide the rest of the
// module from the linter.
//
// Tokens stream from the lexer through a four-slot ring: the grammar looks
// at most two tokens past the current one (peek) and pushes back at most
// one (Parse's keyword-typo recovery), so the source is never lexed into a
// slice. A rule that needs a deeper look must widen the ring.
// The AST it builds is at most maxDepth levels deep.
type Parser struct {
	lex    Lexer
	win    [4]Token // win[head] is the current token; n tokens are lexed ahead
	head   int
	n      int
	errs   []SyntaxError
	depth  int // statement and expression nodes above the one being parsed
	parens int // parentheses open around it
}

// maxDepth bounds the nesting of the AST below a module item, so neither
// the parser's recursion nor any walker of its AST can exhaust the stack,
// whatever the input. It counts the statements and expressions on a
// root-to-leaf path: a left-leaning chain such as a+a+a is one level per
// operator, and parentheses, which add no node, add none but nest at
// most maxDepth deep themselves. A statement needs room for the
// expressions it holds, so it sits at most maxDepth-2 levels deep. Past
// the cap the parser records one syntax error and skips the construct,
// so a printed AST always reparses. The deepest of the 558 sources
// TestParsePinned parses is 21 levels deep.
const maxDepth = 1000

// Parse parses src and returns the AST along with all syntax errors found.
// The AST is best-effort when errors are present.
func Parse(src string) (*SourceFile, []SyntaxError) {
	p := &Parser{lex: *NewLexer(src)}
	f := &SourceFile{}
	for !p.at(TokEOF) {
		if p.atKeyword("module") {
			if m := p.parseModule(); m != nil {
				f.Modules = append(f.Modules, m)
			}
			continue
		}
		t := p.next()
		if t.Kind == TokIdent && looksLikeKeywordTypo(t.Text, "module") {
			p.errorf(t, "expected 'module', found %q (possible keyword typo)", t.Text)
			// Treat it as module and continue parsing.
			p.pushBack(Token{Kind: TokKeyword, Text: "module", Line: t.Line, Col: t.Col})
			continue
		}
		p.errorf(t, "expected 'module', found %q", t.Text)
	}
	return f, p.errs
}

// MustParse parses src and panics on any syntax error. Intended for the
// embedded golden benchmark sources, which are known-correct.
func MustParse(src string) *SourceFile {
	f, errs := Parse(src)
	if len(errs) > 0 {
		panic(fmt.Sprintf("verilog.MustParse: %v", errs[0]))
	}
	return f
}

// peek returns the token k places past the current one (k <= 2), lexing
// into the window as needed. Past the end every token is TokEOF.
func (p *Parser) peek(k int) Token {
	for p.n <= k {
		p.win[(p.head+p.n)&3] = p.lex.Next()
		p.n++
	}
	return p.win[(p.head+k)&3]
}

func (p *Parser) cur() Token  { return p.peek(0) }
func (p *Parser) next() Token { t := p.cur(); p.advance(); return t }

// advance consumes the current token; TokEOF is never consumed.
func (p *Parser) advance() {
	if p.cur().Kind != TokEOF {
		p.head = (p.head + 1) & 3
		p.n--
	}
}

// pushBack makes t the current token, ahead of the rest of the window.
func (p *Parser) pushBack(t Token) {
	p.head = (p.head - 1) & 3
	p.n++
	p.win[p.head] = t
}

func (p *Parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *Parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) atPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *Parser) atOp(s string) bool {
	t := p.cur()
	return t.Kind == TokOp && t.Text == s
}

func (p *Parser) acceptPunct(s string) bool {
	if p.atPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) acceptOp(s string) bool {
	if p.atOp(s) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) Token {
	t := p.cur()
	if p.atPunct(s) {
		p.advance()
		return t
	}
	p.errorf(t, "expected %q, found %q", s, tokenDesc(t))
	return t
}

func (p *Parser) expectIdent() (string, Token) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.advance()
		return t.Text, t
	}
	p.errorf(t, "expected identifier, found %q", tokenDesc(t))
	return "", t
}

func (p *Parser) errorf(t Token, format string, args ...interface{}) {
	// Cap error count so pathological input cannot blow up memory.
	if len(p.errs) < 200 {
		p.errs = append(p.errs, SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)})
	}
}

func tokenDesc(t Token) string {
	if t.Kind == TokEOF {
		return "end of file"
	}
	return t.Text
}

// looksLikeKeywordTypo reports whether ident is a small edit of keyword —
// the shape of error the fault generator's SynKeywordTypo class produces.
func looksLikeKeywordTypo(ident, keyword string) bool {
	if ident == keyword {
		return false
	}
	la, lb := len(ident), len(keyword)
	if la == 0 || lb == 0 {
		return false
	}
	d := la - lb
	if d < -1 || d > 1 {
		return false
	}
	// Levenshtein distance <= 1 via direct scan.
	i, j, edits := 0, 0, 0
	for i < la && j < lb {
		if ident[i] == keyword[j] {
			i++
			j++
			continue
		}
		edits++
		if edits > 1 {
			return false
		}
		switch {
		case la == lb:
			i++
			j++
		case la > lb:
			i++
		default:
			j++
		}
	}
	edits += (la - i) + (lb - j)
	return edits <= 1
}

// sync skips tokens until one of the given keywords/puncts, or EOF. The
// stopping token is not consumed.
func (p *Parser) sync(stops ...string) {
	for !p.at(TokEOF) {
		t := p.cur()
		for _, s := range stops {
			if t.Text == s && (t.Kind == TokKeyword || t.Kind == TokPunct) {
				return
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------------
// Module structure

func (p *Parser) parseModule() *Module {
	modTok := p.cur()
	p.acceptKeyword("module")
	name, _ := p.expectIdent()
	m := &Module{Name: name, Line: modTok.Line}

	// Optional parameter port list: #(parameter N = 8, ...)
	if p.atPunct("#") {
		p.advance()
		p.expectPunct("(")
		for !p.atPunct(")") && !p.at(TokEOF) {
			if p.acceptKeyword("parameter") {
				pd := p.parseParamAssign(false)
				if pd != nil {
					m.Items = append(m.Items, pd)
				}
			} else {
				p.errorf(p.cur(), "expected 'parameter' in parameter port list")
				p.sync(")", ";")
				break
			}
			if !p.acceptPunct(",") {
				break
			}
		}
		p.expectPunct(")")
	}

	// Port list.
	if p.acceptPunct("(") {
		p.parsePortList(m)
		p.expectPunct(")")
	}
	p.expectPunct(";")

	// Body items until endmodule.
	for !p.at(TokEOF) {
		if p.acceptKeyword("endmodule") {
			return m
		}
		t := p.cur()
		if t.Kind == TokKeyword && t.Text == "module" {
			p.errorf(t, "missing 'endmodule' before next module")
			return m
		}
		if it := p.parseItem(m); it != nil {
			m.Items = append(m.Items, it)
		}
	}
	p.errorf(p.cur(), "missing 'endmodule' at end of file")
	return m
}

// parsePortList parses an ANSI port list. Non-ANSI lists (bare names with
// directions declared in the body) are also accepted; the body declarations
// then fill in direction and width.
func (p *Parser) parsePortList(m *Module) {
	if p.atPunct(")") {
		return
	}
	var lastDir = DirInput
	var haveDir bool
	for {
		t := p.cur()
		switch {
		case p.atKeyword("input") || p.atKeyword("output") || p.atKeyword("inout"):
			dir := DirInput
			switch t.Text {
			case "output":
				dir = DirOutput
			case "inout":
				dir = DirInout
			}
			p.advance()
			lastDir, haveDir = dir, true
			isReg := p.acceptKeyword("reg")
			p.acceptKeyword("wire")
			signed := p.acceptKeyword("signed")
			var rng *Range
			if p.atPunct("[") {
				rng = p.parseRange()
			}
			name, nt := p.expectIdent()
			if name != "" {
				m.Ports = append(m.Ports, &Port{Dir: dir, IsReg: isReg, Signed: signed, Range: rng, Name: name, Line: nt.Line})
			}
		case t.Kind == TokIdent:
			p.advance()
			if haveDir {
				// Continuation of previous direction group with same range is
				// not tracked; treat as scalar of the last direction. Body
				// declarations may refine.
				m.Ports = append(m.Ports, &Port{Dir: lastDir, Name: t.Text, Line: t.Line})
			} else {
				// Non-ANSI: direction comes later in the body.
				m.Ports = append(m.Ports, &Port{Dir: DirInput, Name: t.Text, Line: t.Line})
			}
		case t.Kind == TokKeyword && looksLikeTypoOfAny(t.Text, "input", "output", "inout"):
			p.errorf(t, "unexpected keyword %q in port list", t.Text)
			p.advance()
		case t.Kind == TokIdent:
			p.advance()
		default:
			p.errorf(t, "unexpected %q in port list", tokenDesc(t))
			p.sync(")", ";")
			return
		}
		if !p.acceptPunct(",") {
			return
		}
	}
}

func looksLikeTypoOfAny(s string, kws ...string) bool {
	for _, k := range kws {
		if looksLikeKeywordTypo(s, k) {
			return true
		}
	}
	return false
}

func (p *Parser) parseRange() *Range {
	p.expectPunct("[")
	msb := p.parseExpr()
	p.expectPunct(":")
	lsb := p.parseExpr()
	p.expectPunct("]")
	return &Range{MSB: msb, LSB: lsb}
}

func (p *Parser) parseParamAssign(local bool) *ParamDecl {
	// Optional range on parameter is parsed and discarded.
	if p.atPunct("[") {
		p.parseRange()
	}
	name, nt := p.expectIdent()
	if name == "" {
		p.sync(",", ";", ")")
		return nil
	}
	if !p.acceptOp("=") {
		p.errorf(p.cur(), "expected '=' after parameter name %q", name)
		p.sync(",", ";", ")")
		return nil
	}
	v := p.parseExpr()
	return &ParamDecl{Local: local, Name: name, Value: v, Line: nt.Line}
}

// parseItem parses one module body item.
func (p *Parser) parseItem(m *Module) Item {
	t := p.cur()
	switch {
	case p.atKeyword("parameter"), p.atKeyword("localparam"):
		local := t.Text == "localparam"
		p.advance()
		pd := p.parseParamAssign(local)
		p.expectPunct(";")
		if pd == nil {
			return nil // a nil *ParamDecl would be a non-nil Item
		}
		return pd

	case p.atKeyword("input"), p.atKeyword("output"), p.atKeyword("inout"):
		p.parseBodyPortDecl(m)
		return nil

	case p.atKeyword("wire"), p.atKeyword("reg"), p.atKeyword("integer"), p.atKeyword("genvar"):
		return p.parseNetDecl()

	case p.atKeyword("assign"):
		p.advance()
		lhs := p.parseExpr()
		if !p.acceptOp("=") {
			p.errorf(p.cur(), "expected '=' in continuous assignment")
			p.sync(";", "endmodule")
			p.acceptPunct(";")
			return nil
		}
		rhs := p.parseExpr()
		p.expectSemi("continuous assignment")
		return &ContAssign{LHS: lhs, RHS: rhs, Line: t.Line}

	case p.atKeyword("always"):
		p.advance()
		sens := p.parseSensList()
		body := p.parseStmt()
		return &AlwaysBlock{Sens: sens, Body: body, Line: t.Line}

	case p.atKeyword("initial"):
		p.advance()
		body := p.parseStmt()
		return &InitialBlock{Body: body, Line: t.Line}

	case t.Kind == TokIdent:
		// Could be a module instantiation: Ident Ident ( ... ) ; or with
		// a parameter override: Ident #( ... ) Ident ( ... ) ;
		if (p.peek(1).Kind == TokIdent && p.peek(2).Text == "(") || p.peek(1).Text == "#" {
			return p.parseInstance()
		}
		if looksLikeTypoOfAny(t.Text, "assign", "always", "wire", "reg", "endmodule", "output", "input", "parameter", "initial") {
			p.errorf(t, "unknown construct %q (possible keyword typo)", t.Text)
		} else {
			p.errorf(t, "unexpected identifier %q at module level", t.Text)
		}
		p.sync(";", "endmodule")
		p.acceptPunct(";")
		return nil

	case p.atPunct(";"):
		p.advance()
		return nil

	default:
		p.errorf(t, "unexpected %q at module level", tokenDesc(t))
		p.advance()
		p.sync(";", "endmodule", "assign", "always", "wire", "reg")
		p.acceptPunct(";")
		return nil
	}
}

// expectSemi reports a missing semicolon with a premature-termination
// flavored message, matching the fault class that drops semicolons.
func (p *Parser) expectSemi(ctx string) {
	if p.acceptPunct(";") {
		return
	}
	p.errorf(p.cur(), "missing ';' after %s", ctx)
	// Do not consume: the current token likely starts the next item.
}

// parseBodyPortDecl handles non-ANSI direction declarations in the body:
// input [7:0] a, b; They update the existing port entries.
func (p *Parser) parseBodyPortDecl(m *Module) {
	t := p.next()
	dir := DirInput
	switch t.Text {
	case "output":
		dir = DirOutput
	case "inout":
		dir = DirInout
	}
	isReg := p.acceptKeyword("reg")
	p.acceptKeyword("wire")
	signed := p.acceptKeyword("signed")
	var rng *Range
	if p.atPunct("[") {
		rng = p.parseRange()
	}
	for {
		name, nt := p.expectIdent()
		if name == "" {
			p.sync(";", "endmodule")
			break
		}
		if pt := m.Port(name); pt != nil {
			pt.Dir = dir
			pt.IsReg = pt.IsReg || isReg
			pt.Signed = signed
			pt.Range = rng
		} else {
			m.Ports = append(m.Ports, &Port{Dir: dir, IsReg: isReg, Signed: signed, Range: rng, Name: name, Line: nt.Line})
		}
		if !p.acceptPunct(",") {
			break
		}
	}
	p.expectSemi("port declaration")
}

func (p *Parser) parseNetDecl() Item {
	t := p.next()
	kind := KindWire
	switch t.Text {
	case "reg":
		kind = KindReg
	case "integer", "genvar":
		kind = KindInteger
	}
	signed := p.acceptKeyword("signed")
	var rng *Range
	if p.atPunct("[") {
		rng = p.parseRange()
	}
	d := &NetDecl{Kind: kind, Signed: signed, Range: rng, Line: t.Line}
	for {
		name, nt := p.expectIdent()
		if name == "" {
			p.sync(";", "endmodule")
			break
		}
		dn := DeclName{Name: name, Line: nt.Line}
		if p.atPunct("[") {
			dn.ArrayRange = p.parseRange()
		}
		if p.acceptOp("=") {
			dn.Init = p.parseExpr()
		}
		d.Names = append(d.Names, dn)
		if !p.acceptPunct(",") {
			break
		}
	}
	p.expectSemi(kind.String() + " declaration")
	return d
}

func (p *Parser) parseSensList() *SensList {
	s := &SensList{}
	if !p.atPunct("@") {
		p.errorf(p.cur(), "expected '@' after 'always'")
		return s
	}
	p.advance()
	if p.atOp("*") {
		p.advance()
		s.Star = true
		return s
	}
	p.expectPunct("(")
	if p.atOp("*") {
		p.advance()
		s.Star = true
		p.expectPunct(")")
		return s
	}
	for {
		t := p.cur()
		edge := EdgeNone
		if p.acceptKeyword("posedge") {
			edge = EdgePos
		} else if p.acceptKeyword("negedge") {
			edge = EdgeNeg
		}
		name, nt := p.expectIdent()
		if name == "" {
			p.sync(")", ";")
			break
		}
		_ = t
		s.Items = append(s.Items, SensItem{Edge: edge, Signal: name, Line: nt.Line})
		if p.acceptKeyword("or") || p.acceptPunct(",") {
			continue
		}
		break
	}
	p.expectPunct(")")
	return s
}

func (p *Parser) parseInstance() Item {
	modTok := p.next() // module name
	inst := &Instance{ModName: modTok.Text, Line: modTok.Line}
	if p.acceptPunct("#") {
		p.expectPunct("(")
		inst.Params = p.parseConnList()
		p.expectPunct(")")
	}
	name, _ := p.expectIdent()
	inst.InstName = name
	p.expectPunct("(")
	inst.Conns = p.parseConnList()
	p.expectPunct(")")
	p.expectSemi("module instantiation")
	return inst
}

func (p *Parser) parseConnList() []PortConn {
	var conns []PortConn
	if p.atPunct(")") {
		return conns
	}
	ordinal := 0
	for {
		t := p.cur()
		if p.acceptPunct(".") {
			pname, pt := p.expectIdent()
			p.expectPunct("(")
			var e Expr
			if !p.atPunct(")") {
				e = p.parseExpr()
			}
			p.expectPunct(")")
			conns = append(conns, PortConn{Port: pname, Expr: e, Line: pt.Line})
		} else {
			e := p.parseExpr()
			conns = append(conns, PortConn{Port: fmt.Sprintf("$%d", ordinal), Expr: e, Line: t.Line})
		}
		ordinal++
		if !p.acceptPunct(",") {
			return conns
		}
	}
}

// ---------------------------------------------------------------------------
// Statements

// parseStmt parses one statement a level below the current one; past the
// nesting cap it skips the statement instead (see maxDepth).
func (p *Parser) parseStmt() Stmt {
	t := p.cur()
	if p.depth+3 > maxDepth {
		p.errorf(t, nestingMsg, maxDepth)
		p.skipStmt()
		return &NullStmt{Line: t.Line}
	}
	p.depth++
	s := p.stmt(t)
	p.depth--
	return s
}

func (p *Parser) stmt(t Token) Stmt {
	switch {
	case p.atKeyword("begin"):
		p.advance()
		// Optional block label ": name".
		if p.acceptPunct(":") {
			p.expectIdent()
		}
		b := &Block{Line: t.Line}
		for !p.atKeyword("end") && !p.at(TokEOF) {
			if p.atKeyword("endmodule") {
				p.errorf(p.cur(), "missing 'end' before 'endmodule'")
				return b
			}
			s := p.parseStmt()
			if s != nil {
				b.Stmts = append(b.Stmts, s)
			}
		}
		if !p.acceptKeyword("end") {
			p.errorf(p.cur(), "missing 'end' for block starting at line %d", t.Line)
		}
		return b

	case p.atKeyword("if"):
		p.advance()
		p.expectPunct("(")
		cond := p.parseExpr()
		p.expectPunct(")")
		then := p.parseStmt()
		var els Stmt
		if p.acceptKeyword("else") {
			els = p.parseStmt()
		}
		return &If{Cond: cond, Then: then, Else: els, Line: t.Line}

	case p.atKeyword("case"), p.atKeyword("casez"), p.atKeyword("casex"):
		kind := t.Text
		p.advance()
		p.expectPunct("(")
		sw := p.parseExpr()
		p.expectPunct(")")
		c := &Case{Kind: kind, Expr: sw, Line: t.Line}
		for !p.atKeyword("endcase") && !p.at(TokEOF) {
			if p.atKeyword("endmodule") {
				p.errorf(p.cur(), "missing 'endcase' before 'endmodule'")
				return c
			}
			it := CaseItem{Line: p.cur().Line}
			if p.acceptKeyword("default") {
				p.acceptPunct(":")
			} else {
				for {
					it.Exprs = append(it.Exprs, p.parseExpr())
					if !p.acceptPunct(",") {
						break
					}
				}
				p.expectPunct(":")
			}
			it.Body = p.parseStmt()
			c.Items = append(c.Items, it)
		}
		if !p.acceptKeyword("endcase") {
			p.errorf(p.cur(), "missing 'endcase' for case at line %d", t.Line)
		}
		return c

	case p.atKeyword("for"):
		p.advance()
		p.expectPunct("(")
		p.depth++ // the header assignments' operands sit a level below them
		init := p.parseAssignNoSemi()
		p.depth--
		p.expectPunct(";")
		cond := p.parseExpr()
		p.expectPunct(";")
		p.depth++
		step := p.parseAssignNoSemi()
		p.depth--
		p.expectPunct(")")
		body := p.parseStmt()
		return &For{Init: init, Cond: cond, Step: step, Body: body, Line: t.Line}

	case p.atPunct(";"):
		p.advance()
		return &NullStmt{Line: t.Line}

	case p.atPunct("#"):
		// Delay control "#10" — parse and ignore (non-synthesizable).
		p.advance()
		p.parsePrimary()
		return p.parseStmt()

	case t.Kind == TokIdent || p.atPunct("{"):
		a := p.parseAssignNoSemi()
		p.expectSemi("assignment")
		if a == nil {
			return &NullStmt{Line: t.Line}
		}
		return a

	case t.Kind == TokKeyword:
		if looksLikeTypoOfAny(t.Text, "begin", "end", "if", "else", "case", "endcase", "for") {
			p.errorf(t, "unknown statement keyword %q", t.Text)
		} else {
			p.errorf(t, "unexpected keyword %q in statement", t.Text)
		}
		p.advance()
		p.sync(";", "end", "endmodule")
		p.acceptPunct(";")
		return &NullStmt{Line: t.Line}

	default:
		p.errorf(t, "unexpected %q in statement", tokenDesc(t))
		p.advance()
		p.sync(";", "end", "endmodule")
		p.acceptPunct(";")
		return &NullStmt{Line: t.Line}
	}
}

// parseAssignNoSemi parses "lhs = rhs" or "lhs <= rhs" without the
// trailing semicolon (shared by statements and for-loop headers). The LHS
// is parsed as an l-value (no binary operators) so that "sum <= a" is an
// assignment rather than a comparison expression.
func (p *Parser) parseAssignNoSemi() *Assign {
	t := p.cur()
	lhs, _ := p.parsePostfix()
	blocking := true
	switch {
	case p.atOp("=") && p.adjacentOp("<"):
		// "=<" lexes as two adjacent tokens; report the fault-generator's
		// malformed-operator class explicitly.
		p.errorf(p.cur(), "malformed assignment operator '=<' (did you mean '<=')")
		p.advance()
		p.advance()
		blocking = false
	case p.acceptOp("="):
		blocking = true
	case p.acceptOp("<="):
		blocking = false
	default:
		p.errorf(p.cur(), "expected assignment operator, found %q", tokenDesc(p.cur()))
		p.sync(";", ")", "end", "endmodule")
		return nil
	}
	rhs := p.parseExpr()
	return &Assign{LHS: lhs, RHS: rhs, Blocking: blocking, Line: t.Line}
}

// adjacentOp reports whether the next token is operator op, starting in
// the column right after the current token's first character.
func (p *Parser) adjacentOp(op string) bool {
	t, nx := p.cur(), p.peek(1)
	return nx.Kind == TokOp && nx.Text == op && nx.Line == t.Line && nx.Col == t.Col+1
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4, "~^": 4, "^~": 4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseExpr() Expr {
	e, _ := p.parseTernary()
	return e
}

// The expression rules return the height of the tree they built: a node
// that wraps an operand parsed before it (an operator chain, a ternary's
// condition, a select's base) checks the cap with it.

func (p *Parser) parseTernary() (Expr, int) {
	cond, h := p.parseBinary(1)
	if !p.atPunct("?") || p.tooDeep(p.depth+h+1, p.cur()) {
		return cond, h
	}
	t := p.next()
	p.depth++
	then, ht := p.parseTernary()
	p.expectPunct(":")
	els, he := p.parseTernary()
	p.depth--
	return &Ternary{Cond: cond, Then: then, Else: els, Line: t.Line}, 1 + max(h, ht, he)
}

func (p *Parser) parseBinary(minPrec int) (Expr, int) {
	lhs, h := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != TokOp {
			return lhs, h
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec || p.tooDeep(p.depth+h+1, t) {
			return lhs, h
		}
		p.advance()
		p.depth++
		rhs, hr := p.parseBinary(prec + 1)
		p.depth--
		lhs, h = &Binary{Op: t.Text, X: lhs, Y: rhs, Line: t.Line}, 1+max(h, hr)
	}
}

func (p *Parser) parseUnary() (Expr, int) {
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^":
			if p.tooDeep(p.depth+2, t) {
				return &Number{Text: "0", Line: t.Line}, 1
			}
			p.advance()
			p.depth++
			x, h := p.parseUnary()
			p.depth--
			return &Unary{Op: t.Text, X: x, Line: t.Line}, 1 + h
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, int) {
	e, h := p.parsePrimary()
	for p.atPunct("[") && !p.tooDeep(p.depth+h+1, p.cur()) {
		open := p.next()
		p.depth++
		idx, hi := p.parseTernary()
		if p.acceptPunct(":") {
			lsb, hl := p.parseTernary()
			p.expectPunct("]")
			e, h = &PartSelect{X: e, MSB: idx, LSB: lsb, Line: open.Line}, 1+max(h, hi, hl)
		} else {
			p.expectPunct("]")
			e, h = &Index{X: e, Index: idx, Line: open.Line}, 1+max(h, hi)
		}
		p.depth--
	}
	return e, h
}

func (p *Parser) parsePrimary() (Expr, int) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		w, v, xz, err := ParseNumberLiteral(t.Text)
		if err != nil {
			p.errorf(t, "malformed number literal %q", t.Text)
		}
		return &Number{Text: t.Text, Width: w, Value: v, HasXZ: xz, Line: t.Line}, 1

	case t.Kind == TokIdent:
		p.advance()
		return &Ident{Name: t.Text, Line: t.Line}, 1

	case p.atPunct("("):
		if p.tooDeep(p.parens+1, t) {
			return &Number{Text: "0", Line: t.Line}, 1
		}
		p.advance()
		p.parens++
		e, h := p.parseTernary()
		p.parens--
		p.expectPunct(")")
		return e, h

	case p.atPunct("{"):
		if p.tooDeep(p.depth+2, t) {
			return &Number{Text: "0", Line: t.Line}, 1
		}
		p.advance()
		p.depth++
		e, h := p.parseBraces(t)
		p.depth--
		return e, h

	case t.Kind == TokError:
		p.advance()
		p.errorf(t, "malformed token %q", t.Text)
		return &Number{Text: t.Text, Line: t.Line}, 1

	default:
		p.errorf(t, "expected expression, found %q", tokenDesc(t))
		// Do not consume structural tokens; return a placeholder.
		if t.Kind == TokOp {
			p.advance()
		}
		return &Number{Text: "0", Line: t.Line}, 1
	}
}

// parseBraces parses a concatenation or replication after its '{', one
// level below it, and returns the node and its height.
func (p *Parser) parseBraces(t Token) (Expr, int) {
	first, h := p.parseTernary()
	// Replication: { N { expr } }. Its value may be a concatenation list,
	// whose elements sit a level lower, so it is parsed there either way.
	if p.atPunct("{") && !p.tooDeep(p.depth+2, p.cur()) {
		p.advance()
		p.depth++
		vals, hv := p.parseList(p.parseTernary())
		p.depth--
		val := vals[0]
		if len(vals) > 1 {
			val = &Concat{Parts: vals, Line: t.Line}
		}
		p.expectPunct("}")
		p.expectPunct("}")
		return &Repl{Count: first, Value: val, Line: t.Line}, 1 + max(h, hv+1)
	}
	parts, h := p.parseList(first, h)
	p.expectPunct("}")
	return &Concat{Parts: parts, Line: t.Line}, 1 + h
}

// parseList continues a comma-separated expression list after its first
// element, returning the elements and the tallest one's height.
func (p *Parser) parseList(first Expr, h int) ([]Expr, int) {
	parts := []Expr{first}
	for p.acceptPunct(",") {
		e, he := p.parseTernary()
		parts, h = append(parts, e), max(h, he)
	}
	return parts, h
}

// nestingMsg is the syntax error past the nesting cap.
const nestingMsg = "nesting deeper than %d levels"

// tooDeep reports whether a construct reaching nesting level level, at
// the current token t, passes maxDepth. If so it records the nesting
// error and skips the rest of the expression, so the caller builds
// nothing deeper.
func (p *Parser) tooDeep(level int, t Token) bool {
	if level <= maxDepth {
		return false
	}
	p.errorf(t, nestingMsg, maxDepth)
	p.skipExpr()
	return true
}

// skipExpr drops the rest of an expression without recursing, as sync
// does for statements: it stops before a ';', a keyword or the end of
// the file, and before a ',', ':' or closing bracket that closes nothing
// it skipped, so the enclosing rule resumes at the token it expects.
func (p *Parser) skipExpr() {
	open, ternaries := 0, 0
	for t := p.cur(); t.Kind != TokEOF && t.Kind != TokKeyword && !p.atPunct(";"); t = p.cur() {
		switch {
		case t.Kind != TokPunct:
		case t.Text == "(" || t.Text == "[" || t.Text == "{":
			open++
		case open > 0:
			if t.Text == ")" || t.Text == "]" || t.Text == "}" {
				open--
			}
		case t.Text == "?":
			ternaries++
		case t.Text == ":" && ternaries > 0:
			ternaries--
		case t.Text == ")" || t.Text == "]" || t.Text == "}" || t.Text == "," || t.Text == ":":
			return
		}
		p.advance()
	}
}

// skipStmt drops the statement at the cursor without recursing: through
// its ';', or through the 'end' or 'endcase' that closes the 'begin' or
// 'case' it opens with, and through any 'else' branches that follow. It
// stops early before 'endmodule' or the end of the file.
func (p *Parser) skipStmt() {
	open := 0
	for !p.at(TokEOF) && !p.atKeyword("endmodule") {
		t := p.next()
		switch {
		case t.Kind == TokKeyword && (t.Text == "begin" || t.Text == "case" || t.Text == "casez" || t.Text == "casex"):
			open++
		case t.Kind == TokKeyword && (t.Text == "end" || t.Text == "endcase"):
			open--
			if open <= 0 && !p.atKeyword("else") {
				return
			}
		case t.Kind == TokPunct && t.Text == ";" && open <= 0 && !p.atKeyword("else"):
			return
		}
	}
}
