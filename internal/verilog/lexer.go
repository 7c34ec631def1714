package verilog

import (
	"strings"
	"unicode/utf8"
)

// Lexer converts Verilog source text into a token stream. It never fails
// hard: unrecognized input produces TokError tokens that the parser reports
// as syntax errors, which is essential because UVLLM routinely lints
// deliberately broken code.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, appending a final TokEOF. The parser
// does not use it: it pulls tokens from Next through a fixed window.
func Lex(src string) []Token {
	l := NewLexer(src)
	var toks []Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.advance()
			l.advance()
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		case c == '`':
			// Compiler directives (`timescale, `define) are skipped to
			// end of line; the benchmark subset does not use macros in
			// expressions.
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isBaseDigit(c byte) bool {
	return isDigit(c) || c == '_' || c == 'x' || c == 'X' || c == 'z' || c == 'Z' ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '?'
}

// multiCharOps are matched longest-first.
var multiCharOps = []string{
	"===", "!==", "<<<", ">>>",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
	"+:", "-:",
}

// Next returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}
	}
	line, col := l.line, l.col
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}

	case isDigit(c), c == '\'':
		return l.lexNumber(line, col)

	case c == '"':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peek() != '"' && l.peek() != '\n' {
			l.advance()
		}
		text := l.src[start:l.pos]
		if l.pos < len(l.src) && l.peek() == '"' {
			l.advance()
			return Token{Kind: TokString, Text: text, Line: line, Col: col}
		}
		return Token{Kind: TokError, Text: text, Line: line, Col: col}

	default:
		// Multi-character operators first.
		rest := l.src[l.pos:]
		for _, op := range multiCharOps {
			if strings.HasPrefix(rest, op) {
				for range op {
					l.advance()
				}
				return Token{Kind: TokOp, Text: op, Line: line, Col: col}
			}
		}
		kind, n := TokError, 1
		switch c {
		case '(', ')', '[', ']', '{', '}', ';', ',', '.', ':', '#', '@', '?':
			kind = TokPunct
		case '+', '-', '*', '/', '%', '=', '<', '>', '!', '&', '|', '^', '~':
			kind = TokOp
		default:
			if c >= utf8.RuneSelf {
				// One whole UTF-8 sequence, so a diagnostic quotes the
				// character as written; an invalid byte stays one byte.
				_, n = utf8.DecodeRuneInString(rest)
			}
		}
		start := l.pos
		for ; n > 0; n-- {
			l.advance()
		}
		return Token{Kind: kind, Text: l.src[start:l.pos], Line: line, Col: col}
	}
}

// lexNumber handles plain decimals, based literals (8'hFF, 'b1010) and the
// malformed bases the fault generator produces (8'q3), which lex as TokError
// so the parser reports a data-handling syntax error.
func (l *Lexer) lexNumber(line, col int) Token {
	start := l.pos
	// Optional size prefix.
	for l.pos < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	if l.pos < len(l.src) && l.peek() == '\'' {
		l.advance()
		if l.pos < len(l.src) && (l.peek() == 's' || l.peek() == 'S') {
			l.advance()
		}
		base := l.peek()
		switch base {
		case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
			l.advance()
			digStart := l.pos
			for l.pos < len(l.src) && isBaseDigit(l.peek()) {
				l.advance()
			}
			if l.pos == digStart { // 8'h with no digits
				return Token{Kind: TokError, Text: l.src[start:l.pos], Line: line, Col: col}
			}
			return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: line, Col: col}
		default:
			// Malformed base letter: consume it plus any digits so the
			// error token is self-contained.
			if l.pos < len(l.src) && isIdentPart(l.peek()) {
				for l.pos < len(l.src) && isIdentPart(l.peek()) {
					l.advance()
				}
			}
			return Token{Kind: TokError, Text: l.src[start:l.pos], Line: line, Col: col}
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: line, Col: col}
}
