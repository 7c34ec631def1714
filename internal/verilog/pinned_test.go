package verilog_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/lint"
	"uvllm/internal/rtlgen"
	"uvllm/internal/verilog"
)

// pinnedSources returns the front end's pinned corpus: the 27 golden
// modules, the 331 benchmark sources (160 of them fail to parse, which
// drive every recovery path) and rtlgen seeds 1-200.
func pinnedSources() (names, srcs []string) {
	for _, m := range dataset.All() {
		names, srcs = append(names, m.Name), append(srcs, m.Source)
	}
	for _, f := range faultgen.Benchmark() {
		names, srcs = append(names, f.ID), append(srcs, f.Source)
	}
	for seed := int64(1); seed <= 200; seed++ {
		names, srcs = append(names, fmt.Sprintf("rtlgen/%d", seed)), append(srcs, rtlgen.Generate(seed).Source)
	}
	return names, srcs
}

// TestParsePinned pins what the parser and linter make of every pinned
// source: the printed AST, each syntax error and the lint report, hashed.
// The digest was recorded before the parser read its tokens through a
// fixed window instead of a slice of the whole file; a change to the
// lexer, the parser's recovery or the linter must not move it.
func TestParsePinned(t *testing.T) {
	const (
		wantSources = 558
		wantBroken  = 160
		wantDigest  = "8debd902fad631640a3c469b68f1649e4a1f06c9834b5e34e920825d7fb376b9"
	)
	names, srcs := pinnedSources()
	h := sha256.New()
	broken := 0
	for i, src := range srcs {
		f, errs := verilog.Parse(src)
		if len(errs) > 0 {
			broken++
		}
		fmt.Fprintf(h, "== %s\n%s", names[i], verilog.Print(f))
		for _, e := range errs {
			fmt.Fprintf(h, "%v\n", e)
		}
		fmt.Fprintf(h, "-- lint\n%s", lint.Lint(src).Format())
	}
	got := hex.EncodeToString(h.Sum(nil))
	if len(srcs) != wantSources || broken != wantBroken || got != wantDigest {
		t.Fatalf("%d sources, %d with syntax errors, digest %s; want %d, %d, %s",
			len(srcs), broken, got, wantSources, wantBroken, wantDigest)
	}
}

// TestPrintRecoveredAST: a parameter assignment that fails to parse
// leaves no item behind, so Print, which dereferences every item, can
// walk any recovered AST. A nil *ParamDecl stored as an Item is a
// non-nil interface, so the check looks through it; every AST of the
// pinned corpus must pass it too.
func TestPrintRecoveredAST(t *testing.T) {
	const repro = "module m; localparam A B = 1; endmodule"
	f, errs := verilog.Parse(repro)
	if len(errs) == 0 {
		t.Fatalf("%q parsed without a syntax error", repro)
	}
	if got := verilog.Print(f); !strings.Contains(got, "module m") {
		t.Fatalf("Print(%q) = %q", repro, got)
	}
	names, srcs := pinnedSources()
	names, srcs = append(names, "repro"), append(srcs, repro)
	for i, src := range srcs {
		f, _ := verilog.Parse(src)
		for _, m := range f.Modules {
			for j, it := range m.Items {
				if it == nil || reflect.ValueOf(it).IsNil() {
					t.Fatalf("%s: module %s item %d is a nil %T", names[i], m.Name, j, it)
				}
			}
		}
	}
}

// TestParseAllocs guards the front end's allocation count: tokens stream
// through the parser's window instead of a slice of the whole source, and
// punctuation and operator tokens are substrings of it. Parsing fifo_sync
// took 243 allocations when the source was lexed into a slice first.
func TestParseAllocs(t *testing.T) {
	const limit = 160
	src := dataset.ByName("fifo_sync").Source
	got := testing.AllocsPerRun(20, func() {
		if _, errs := verilog.Parse(src); len(errs) != 0 {
			t.Fatal(errs[0])
		}
	})
	if got > limit {
		t.Fatalf("Parse(fifo_sync) allocates %.0f times, want at most %d", got, limit)
	}
	t.Logf("Parse(fifo_sync): %.0f allocations", got)
}

// TestNestingHeadroom reads the nesting cap's headroom off the pinned
// corpus: no source comes near the cap, so the cap rejects none of
// them, and the deepest one stays a small fraction of it.
func TestNestingHeadroom(t *testing.T) {
	names, srcs := pinnedSources()
	deepest, at := 0, ""
	for i, src := range srcs {
		f, _ := verilog.Parse(src)
		if d := verilog.ASTDepth(f); d > deepest {
			deepest, at = d, names[i]
		}
	}
	if deepest*10 > verilog.MaxDepth {
		t.Fatalf("%s is %d levels deep: less than 10x headroom under the cap of %d", at, deepest, verilog.MaxDepth)
	}
	t.Logf("deepest pinned source: %s, %d levels (cap %d)", at, deepest, verilog.MaxDepth)
}
