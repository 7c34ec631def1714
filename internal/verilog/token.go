// Package verilog implements a lexer, parser, AST and source printer for
// the synthesizable Verilog-2001 subset used by the UVLLM benchmark
// modules. The parser recovers from errors and reports them with line and
// column information so the linter can surface Verilator-style diagnostics
// for broken input.
package verilog

import "fmt"

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds. Operators carry their exact text in Token.Text.
const (
	TokEOF TokenKind = iota
	TokError
	TokIdent
	TokNumber  // 42, 8'hFF, 4'b1010, 'd7
	TokString  // "..."
	TokKeyword // module, endmodule, ...
	TokPunct   // ( ) [ ] { } ; , . : # @ ?
	TokOp      // + - * / % = <= == != < > && || ! & | ^ ~ << >> === !== etc.
)

// String implements fmt.Stringer.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokError:
		return "error"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokKeyword:
		return "keyword"
	case TokPunct:
		return "punctuation"
	case TokOp:
		return "operator"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical token with source position (1-based).
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

// String renders the token with its position, for parser debugging.
func (t Token) String() string {
	return fmt.Sprintf("%s %q @%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

// keywords is the set of reserved words recognized by the lexer. A word not
// in this set lexes as an identifier, which lets the parser produce a good
// diagnostic for keyword typos like "alway" or "moduel".
var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "integer": true,
	"parameter": true, "localparam": true, "assign": true, "always": true,
	"initial": true, "begin": true, "end": true, "if": true, "else": true,
	"case": true, "casez": true, "casex": true, "endcase": true,
	"default": true, "for": true, "while": true, "posedge": true,
	"negedge": true, "or": true, "and": true, "not": true, "generate": true,
	"endgenerate": true, "genvar": true, "function": true,
	"endfunction": true, "signed": true, "unsigned": true,
}
