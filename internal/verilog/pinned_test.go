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
	"uvllm/internal/sim"
	"uvllm/internal/synth"
	"uvllm/internal/verilog"
)

// pinnedSources returns the front end's pinned corpus with each source's
// top module: the 27 golden modules, the 331 benchmark sources (160 of
// them fail to parse, which drive every recovery path) and rtlgen seeds
// 1-200.
func pinnedSources() (names, tops, srcs []string) {
	add := func(name, top, src string) {
		names, tops, srcs = append(names, name), append(tops, top), append(srcs, src)
	}
	for _, m := range dataset.All() {
		add(m.Name, m.Top, m.Source)
	}
	for _, f := range faultgen.Benchmark() {
		add(f.ID, f.Meta().Top, f.Source)
	}
	for seed := int64(1); seed <= 200; seed++ {
		d := rtlgen.Generate(seed)
		add(fmt.Sprintf("rtlgen/%d", seed), d.Top, d.Source)
	}
	return names, tops, srcs
}

// TestParsePinned pins what the parser and linter make of every pinned
// source: the printed AST, each syntax error and the lint report, hashed.
// The digest was recorded before the parser read its tokens through a
// fixed window instead of a slice of the whole file; a change to the
// lexer, the parser's recovery or the linter must not move it.
//
// The second pass reads every source through one job scope
// (sim.Cache.Scope), which shares one parse among the linter, the
// compiler and the synthesizer: it lints, compiles and synthesizes each
// source there before hashing the scope's AST, errors and report. The
// same digest pins that none of them writes to the AST it shares.
func TestParsePinned(t *testing.T) {
	const (
		wantSources = 558
		wantBroken  = 160
		wantDigest  = "8debd902fad631640a3c469b68f1649e4a1f06c9834b5e34e920825d7fb376b9"
	)
	names, tops, srcs := pinnedSources()
	scope := sim.NewCache().Scope()
	passes := []struct {
		name  string
		front func(i int) (*verilog.SourceFile, []verilog.SyntaxError, *lint.Report)
	}{
		{"parse", func(i int) (*verilog.SourceFile, []verilog.SyntaxError, *lint.Report) {
			f, errs := verilog.Parse(srcs[i])
			return f, errs, lint.Lint(srcs[i])
		}},
		{"scope", func(i int) (*verilog.SourceFile, []verilog.SyntaxError, *lint.Report) {
			rep := scope.Lint(srcs[i])
			// Compile and synthesis errors are not pinned here: only
			// what the two leave behind in the shared AST is.
			_, _ = scope.Compile(srcs[i], tops[i], sim.BackendCompiled)
			f, errs := scope.Parse(srcs[i])
			if len(errs) == 0 {
				_, _ = synth.Synthesize(f, tops[i])
			}
			return f, errs, rep
		}},
	}
	for _, pass := range passes {
		h := sha256.New()
		broken := 0
		for i := range srcs {
			f, errs, rep := pass.front(i)
			if len(errs) > 0 {
				broken++
			}
			fmt.Fprintf(h, "== %s\n%s", names[i], verilog.Print(f))
			for _, e := range errs {
				fmt.Fprintf(h, "%v\n", e)
			}
			fmt.Fprintf(h, "-- lint\n%s", rep.Format())
		}
		got := hex.EncodeToString(h.Sum(nil))
		if len(srcs) != wantSources || broken != wantBroken || got != wantDigest {
			t.Errorf("%s pass: %d sources, %d with syntax errors, digest %s; want %d, %d, %s",
				pass.name, len(srcs), broken, got, wantSources, wantBroken, wantDigest)
		}
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
	names, _, srcs := pinnedSources()
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
	names, _, srcs := pinnedSources()
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
