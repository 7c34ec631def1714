package sim

import (
	"sync"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/lint"
	"uvllm/internal/synth"
	"uvllm/internal/verilog"
)

// TestScopeParsesOnce pins what a job scope keeps and what a root does
// not: through a scope, Lint, Parse and Compile of one source share one
// parse; a root parses on every call and retains none; and a scope
// compiles through its root's program memo, so a Program the root holds
// is a hit that parses nothing.
func TestScopeParsesOnce(t *testing.T) {
	t.Run("scope", func(t *testing.T) {
		s := NewCache().Scope()
		rep := s.Lint(memDUT)
		f, errs := s.Parse(memDUT)
		if len(errs) != 0 {
			t.Fatal(errs[0])
		}
		if _, err := s.Compile(memDUT, "memdut", BackendCompiled); err != nil {
			t.Fatal(err)
		}
		f2, _ := s.Parse(memDUT)
		if f2 != f || s.Lint(memDUT) != rep {
			t.Fatal("a scope handed out a second parse or lint report of one source")
		}
		if st := s.front.Stats(); st.Misses != 1 || st.Hits != 4 {
			t.Fatalf("scope parse table = %+v, want 1 parse and 4 reuses", st)
		}
	})
	t.Run("root", func(t *testing.T) {
		c := NewCache()
		f1, _ := c.Parse(memDUT)
		f2, _ := c.Parse(memDUT)
		if f1 == f2 {
			t.Fatal("a root cache returned a retained parse")
		}
		if c.front != nil {
			t.Fatal("a root cache has a parse table")
		}
		if c.Lint(memDUT) == c.Lint(memDUT) {
			t.Fatal("a root cache returned a retained lint report")
		}
	})
	t.Run("shared programs", func(t *testing.T) {
		c := NewCache()
		p, err := c.Compile(memDUT, "memdut", BackendCompiled)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Scope()
		ps, err := s.Compile(memDUT, "memdut", BackendCompiled)
		if err != nil {
			t.Fatal(err)
		}
		if ps != p {
			t.Fatal("a scope compiled its own Program instead of its root's")
		}
		if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("root stats = %+v, want 1 miss and the scope's hit", st)
		}
		if st := s.front.Stats(); st.Misses != 0 {
			t.Fatalf("a program-memo hit parsed %d times", st.Misses)
		}
	})
	t.Run("syntax error", func(t *testing.T) {
		const broken = "module broken(input a, output w);\nassign w = a\nendmodule"
		_, want := CompileSource(broken, "broken", BackendCompiled)
		_, got := NewCache().Scope().Compile(broken, "broken", BackendCompiled)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("scope compile error %v, want CompileSource's %v", got, want)
		}
	})
}

// TestScopeConcurrent runs the linter, the synthesizer and the compiler
// over the dataset's sources from several goroutines at once, through
// one scope and through two scopes of one root. Every goroutine must
// see the same parse, report and Program; each scope parses a source
// once and the root compiles it once; and the shared ASTs still print
// as a fresh parse does, so no reader wrote to them.
func TestScopeConcurrent(t *testing.T) {
	mods := dataset.All()
	const perScope = 3
	for _, nScopes := range []int{1, 2} {
		root := NewCache()
		scopes := make([]*Cache, nScopes)
		for i := range scopes {
			scopes[i] = root.Scope()
		}
		type seen struct {
			f    *verilog.SourceFile
			rep  *lint.Report
			prog *Program
			syn  string
		}
		got := make([][]seen, nScopes*perScope)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]seen, len(mods))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := scopes[g%nScopes]
				// Each goroutine starts at a different source, so first
				// requests race with later ones.
				for k := range mods {
					i := (k + g*7) % len(mods)
					m := mods[i]
					rep := s.Lint(m.Source)
					f, errs := s.Parse(m.Source)
					if len(errs) != 0 {
						t.Errorf("%s: %v", m.Name, errs[0])
						return
					}
					syn := "ok"
					if _, err := synth.Synthesize(f, m.Top); err != nil {
						syn = err.Error()
					}
					p, err := s.Compile(m.Source, m.Top, BackendCompiled)
					if err != nil {
						t.Errorf("%s: %v", m.Name, err)
						return
					}
					got[g][i] = seen{f: f, rep: rep, prog: p, syn: syn}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, m := range mods {
			fresh, _ := verilog.Parse(m.Source)
			want := "ok"
			if _, err := synth.Synthesize(fresh, m.Top); err != nil {
				want = err.Error()
			}
			for g := range got {
				a, b := got[g][i], got[g%nScopes][i]
				if a.f != b.f || a.rep != b.rep {
					t.Fatalf("%d scopes, %s: goroutines of one scope saw different parses", nScopes, m.Name)
				}
				if a.prog != got[0][i].prog {
					t.Fatalf("%d scopes, %s: goroutines compiled different Programs", nScopes, m.Name)
				}
				if a.syn != want {
					t.Fatalf("%d scopes, %s: synthesis read %q through the scope, %q on a fresh parse", nScopes, m.Name, a.syn, want)
				}
			}
			for k := 0; k < nScopes; k++ {
				if verilog.Print(got[k][i].f) != verilog.Print(fresh) {
					t.Fatalf("%d scopes, %s: scope %d's AST no longer prints as a fresh parse", nScopes, m.Name, k)
				}
			}
		}
		for i, s := range scopes {
			if st := s.front.Stats(); st.Misses != int64(len(mods)) {
				t.Fatalf("%d scopes: scope %d parsed %d times for %d sources", nScopes, i, st.Misses, len(mods))
			}
		}
		if st := root.Stats(); st.Misses != int64(len(mods)) {
			t.Fatalf("%d scopes: root compiled %d times for %d sources", nScopes, st.Misses, len(mods))
		}
	}
}
