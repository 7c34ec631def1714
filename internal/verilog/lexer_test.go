package verilog

import "testing"

func lexKinds(t *testing.T, src string) []Token {
	t.Helper()
	toks := Lex(src)
	if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
		t.Fatalf("Lex(%q) did not end with EOF", src)
	}
	return toks[:len(toks)-1]
}

func TestLexIdentifiersAndKeywords(t *testing.T) {
	toks := lexKinds(t, "module adder_8bit; wire _w1; endmodule")
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "module"}, {TokIdent, "adder_8bit"}, {TokPunct, ";"},
		{TokKeyword, "wire"}, {TokIdent, "_w1"}, {TokPunct, ";"},
		{TokKeyword, "endmodule"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %s %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind TokenKind
		text string
	}{
		{"42", TokNumber, "42"},
		{"8'hFF", TokNumber, "8'hFF"},
		{"4'b1010", TokNumber, "4'b1010"},
		{"12'd0", TokNumber, "12'd0"},
		{"'b101", TokNumber, "'b101"},
		{"32'hDEAD_BEEF", TokNumber, "32'hDEAD_BEEF"},
		{"8'bxxxx_zzzz", TokNumber, "8'bxxxx_zzzz"},
		{"8'q3", TokError, "8'q3"}, // malformed base: data-handling fault class
	}
	for _, c := range cases {
		toks := lexKinds(t, c.src)
		if len(toks) != 1 {
			t.Errorf("Lex(%q) = %v, want single token", c.src, toks)
			continue
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("Lex(%q) = %v, want %s %q", c.src, toks[0], c.kind, c.text)
		}
	}
}

// TestLexUnknownInput: a byte the grammar has no use for lexes as one
// TokError quoting the input as written — a whole UTF-8 character, or a
// single invalid byte — and lexing resumes right after it.
func TestLexUnknownInput(t *testing.T) {
	cases := []struct {
		src   string
		texts []string
		cols  []int
	}{
		{"\\", []string{"\\"}, []int{1}},
		{"é", []string{"é"}, []int{1}},
		{"\xff", []string{"\xff"}, []int{1}},
		{"aé;", []string{"a", "é", ";"}, []int{1, 2, 4}},
		{"\xff\xfeb", []string{"\xff", "\xfe", "b"}, []int{1, 2, 3}},
		{"\xc3", []string{"\xc3"}, []int{1}}, // truncated sequence
	}
	for _, c := range cases {
		toks := lexKinds(t, c.src)
		if len(toks) != len(c.texts) {
			t.Errorf("Lex(%q) = %v, want texts %q", c.src, toks, c.texts)
			continue
		}
		for i, tok := range toks {
			if tok.Text != c.texts[i] || tok.Col != c.cols[i] {
				t.Errorf("Lex(%q) token %d = %v, want %q at column %d", c.src, i, tok, c.texts[i], c.cols[i])
			}
			if wantErr := tok.Text[0] >= 0x80 || tok.Text == "\\"; wantErr != (tok.Kind == TokError) {
				t.Errorf("Lex(%q) token %d = %v, want TokError: %v", c.src, i, tok, wantErr)
			}
		}
	}
	_, errs := Parse("module m;\nwire w; é\nendmodule\n")
	if len(errs) != 1 || errs[0].Msg != `unexpected "é" at module level` {
		t.Errorf("Parse errors = %v, want one: unexpected \"é\" at module level", errs)
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexKinds(t, "a <= b == c != d && e || f << 2 >> 1 === g")
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokOp {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", "==", "!=", "&&", "||", "<<", ">>", "==="}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "a // line comment\n /* block\ncomment */ b")
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("comments not skipped: %v", toks)
	}
	if toks[1].Line != 3 {
		t.Errorf("token b on line %d, want 3", toks[1].Line)
	}
}

func TestLexDirectivesSkipped(t *testing.T) {
	toks := lexKinds(t, "`timescale 1ns/1ps\nmodule")
	if len(toks) != 1 || toks[0].Text != "module" {
		t.Fatalf("directive not skipped: %v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexKinds(t, "ab\n  cd")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("ab at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("cd at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestLexString(t *testing.T) {
	toks := lexKinds(t, `"hello world"`)
	if len(toks) != 1 || toks[0].Kind != TokString || toks[0].Text != "hello world" {
		t.Fatalf("string lexing failed: %v", toks)
	}
}

func TestParseNumberLiteral(t *testing.T) {
	cases := []struct {
		text  string
		width int
		value uint64
		hasXZ bool
		ok    bool
	}{
		{"42", 0, 42, false, true},
		{"8'hFF", 8, 255, false, true},
		{"4'b1010", 4, 10, false, true},
		{"12'd100", 12, 100, false, true},
		{"8'b1010_1010", 8, 0xAA, false, true},
		{"4'bxx10", 4, 2, true, true},
		{"2'd7", 2, 3, false, true}, // truncated to width
		{"8'q3", 0, 0, false, false},
		{"'hZZ", 0, 0, true, true},
	}
	for _, c := range cases {
		w, v, xz, err := ParseNumberLiteral(c.text)
		if c.ok && err != nil {
			t.Errorf("ParseNumberLiteral(%q) error: %v", c.text, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseNumberLiteral(%q) succeeded, want error", c.text)
			}
			continue
		}
		if w != c.width || v != c.value || xz != c.hasXZ {
			t.Errorf("ParseNumberLiteral(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.text, w, v, xz, c.width, c.value, c.hasXZ)
		}
	}
}
