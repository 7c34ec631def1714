package formal_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"uvllm/internal/assert"
	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// TestSearchPinned pins the CDCL search itself, not just its verdicts:
// every per-solve work counter, model, core and counterexample of a fixed
// set of instances must equal its recorded value. A change to clause
// layout, watch lists or the activity heap that alters one decision — a
// different watch-visit order, a different heap tie-break — shows up here
// as a count difference, even where every verdict would still agree. A
// deliberate heuristic change (blocker literals, clause minimization or
// deletion, a new restart policy) re-records the table and says so.
func TestSearchPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{"miter8", pinMiter(0), `
unsat c=1994 d=2906 p=93027 r=14 l=1983 vars=311 clauses=862`},
		{"miter8-resumed", pinMiter(400), `
exhausted c=400 d=697 p=21623 r=5 l=399 vars=311 clauses=862
exhausted c=400 d=682 p=18599 r=5 l=399 vars=311 clauses=862
exhausted c=400 d=732 p=19768 r=5 l=399 vars=311 clauses=862
exhausted c=400 d=558 p=17699 r=5 l=398 vars=311 clauses=862
unsat c=97 d=123 p=3560 r=1 l=89 vars=311 clauses=862`},
		{"random3sat", pinRandom3SAT, `
0.0 unsat c=57 d=72 p=1096 r=0 l=57 vars=80 clauses=306 core=[78 1 -74 75 -15 -29] min=[75] total c=205 d=276 p=4188 r=0 l=203 vars=80 clauses=306
0.1 unsat c=1 d=0 p=27 r=0 l=1 vars=80 clauses=306 core=[14 15 74] min=[15] total c=208 d=296 p=4344 r=0 l=205 vars=80 clauses=306
0.2 unsat c=1 d=0 p=29 r=0 l=1 vars=80 clauses=306 core=[17 33 32] min=[17 32] total c=217 d=329 p=4797 r=0 l=214 vars=80 clauses=306
0.3 unsat c=1 d=0 p=64 r=0 l=1 vars=80 clauses=306 core=[41 -72 34] min=[34 41] total c=223 d=377 p=5194 r=0 l=220 vars=80 clauses=306
0.4 sat c=0 d=18 p=72 r=0 l=0 vars=80 clauses=306 model=b509a230e5e67f1cb6d8
1.0 unsat c=26 d=31 p=568 r=0 l=26 vars=80 clauses=303 core=[67 -3 74 -5 -41 -28] min=[-3 -41] total c=132 d=200 p=3332 r=0 l=132 vars=80 clauses=303
1.1 sat c=1 d=21 p=125 r=0 l=1 vars=80 clauses=303 model=f72d5d8d20e9aa29b171
1.2 unsat c=0 d=0 p=6 r=0 l=0 vars=80 clauses=303 core=[55 -55] min=[55 -55] total c=133 d=268 p=3623 r=0 l=133 vars=80 clauses=303
1.3 unsat c=6 d=5 p=136 r=0 l=6 vars=80 clauses=303 core=[14 18 19 -77 10] min=[-77] total c=210 d=382 p=5428 r=0 l=209 vars=80 clauses=303
1.4 unsat c=24 d=29 p=598 r=0 l=24 vars=80 clauses=303 core=[-10 -20 -57 -43] min=[-10 -57] total c=261 d=481 p=6963 r=0 l=260 vars=80 clauses=303
2.0 unsat c=8 d=7 p=156 r=0 l=8 vars=80 clauses=304 core=[-6 69 7 -27 -13 -79] min=[-13 -27] total c=153 d=217 p=3595 r=0 l=153 vars=80 clauses=304
2.1 unsat c=5 d=4 p=111 r=0 l=5 vars=80 clauses=304 core=[63 11 -45 -6 -23 -70] min=[11 -45] total c=203 d=319 p=5009 r=0 l=203 vars=80 clauses=304
2.2 unsat c=11 d=17 p=248 r=0 l=11 vars=80 clauses=304 core=[-26 -2 -79 -63 -28 -17] min=[-28 -63] total c=250 d=387 p=6089 r=0 l=250 vars=80 clauses=304
2.3 unsat c=2 d=1 p=78 r=0 l=2 vars=80 clauses=304 core=[55 26 64 77 53 35] min=[77] total c=283 d=431 p=6924 r=0 l=282 vars=80 clauses=304
2.4 unsat c=3 d=2 p=41 r=0 l=3 vars=80 clauses=304 core=[69 -39 25 38 -58 -43] min=[25 38] total c=310 d=476 p=7533 r=0 l=309 vars=80 clauses=304
3.0 unsat c=26 d=28 p=525 r=0 l=26 vars=80 clauses=304 core=[34 -42 -43 36 -35 5] min=[34 -35] total c=138 d=228 p=3076 r=0 l=138 vars=80 clauses=304
3.1 sat c=5 d=15 p=196 r=0 l=5 vars=80 clauses=304 model=39b690ebeca14167c43f
3.2 sat c=6 d=24 p=174 r=0 l=6 vars=80 clauses=304 model=1843d268a4872c0bd9de
3.3 unsat c=39 d=49 p=738 r=0 l=39 vars=80 clauses=304 core=[-67 50 -16 -61 46 80] min=[-16 50] total c=300 d=506 p=7107 r=0 l=300 vars=80 clauses=304
3.4 unsat c=20 d=29 p=384 r=0 l=20 vars=80 clauses=304 core=[78 -38 26 -62 80 -28] min=[26 -38 78 80] total c=381 d=705 p=9296 r=0 l=381 vars=80 clauses=304
4.0 sat c=6 d=29 p=164 r=0 l=6 vars=80 clauses=307 model=dc1976a2965d56f62802
4.1 unsat c=0 d=0 p=3 r=0 l=0 vars=80 clauses=307 core=[66 -66] min=[66 -66] total c=14 d=86 p=449 r=0 l=14 vars=80 clauses=307
4.2 sat c=2 d=8 p=139 r=0 l=2 vars=80 clauses=307 model=2e397a6b0d7965afc4a2
4.3 unsat c=7 d=9 p=206 r=0 l=7 vars=80 clauses=307 core=[-53 -77 27 -25 52 16] min=[16 27 -53] total c=104 d=274 p=3059 r=0 l=104 vars=80 clauses=307
4.4 sat c=7 d=22 p=223 r=0 l=7 vars=80 clauses=307 model=f239d6e1161dd2a6e844
5.0 sat c=8 d=29 p=165 r=0 l=8 vars=80 clauses=303 model=86391a244e5664107fb5
5.1 unsat c=9 d=11 p=209 r=0 l=9 vars=80 clauses=303 core=[-33 -70 35 -44 -12 75] min=[-12] total c=131 d=217 p=2878 r=0 l=130 vars=80 clauses=303
5.2 unsat c=0 d=0 p=3 r=0 l=0 vars=80 clauses=303 core=[-18 18] min=[-18] total c=178 d=296 p=4072 r=0 l=174 vars=80 clauses=303
5.3 unsat c=0 d=0 p=0 r=0 l=0 vars=80 clauses=303 core=[-18] min=[-18] total c=178 d=308 p=4147 r=0 l=174 vars=80 clauses=303
5.4 unsat c=2 d=0 p=90 r=0 l=2 vars=80 clauses=303 core=[72 -29] min=[72] total c=183 d=335 p=4454 r=0 l=177 vars=80 clauses=303`},
		{"minimize-cex", pinInduction("lifo_stack/FuncBitwidth-0", formal.Options{MinimizeCex: true}), `
eq=false unbounded=false depth=4 nodes=8878
solve c=3 d=164 p=1163 r=0 l=3 vars=1034 clauses=2664
solve c=65 d=3509 p=68305 r=1 l=65 vars=2315 clauses=6479
solve c=154 d=417 p=19290 r=2 l=151 vars=678 clauses=1947
solve c=28 d=2434 p=78142 r=0 l=28 vars=4011 clauses=11540
solve c=223 d=898 p=42083 r=2 l=219 vars=1400 clauses=3939
solve c=16 d=794 p=45713 r=0 l=16 vars=6122 clauses=17847
solve c=370 d=1491 p=96904 r=4 l=370 vars=2122 clauses=6003
raw cycle=4 signal=dout weight=18 | 0: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 1: din=0x10 pop=0x0 push=0x1 rst_n=0x1 | 2: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 3: din=0x9d pop=0x1 push=0x1 rst_n=0x1 | 4: din=0x40 pop=0x0 push=0x1 rst_n=0x1
cex cycle=4 signal=dout weight=11 | 0: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 1: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 2: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 3: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 4: din=0x80 pop=0x0 push=0x1 rst_n=0x1`},
		{"vending-unbounded", pinInduction("vending_machine/FuncCondition-0", formal.Options{}), `
eq=true unbounded=true depth=6 nodes=6596
solve c=5 d=99 p=862 r=0 l=4 vars=382 clauses=1026
solve c=25 d=157 p=5003 r=0 l=22 vars=1063 clauses=3036
solve c=14 d=103 p=5887 r=0 l=14 vars=1847 clauses=5322
solve c=64 d=271 p=21501 r=1 l=64 vars=2734 clauses=7922
solve c=74 d=218 p=25598 r=1 l=74 vars=3724 clauses=10832
solve c=489 d=1013 p=207970 r=5 l=486 vars=4817 clauses=14052`},
		{"ram-bounded", pinInduction("ram_sp/FuncDeclType-1", formal.Options{}), `
eq=true unbounded=false depth=8 nodes=48313
solve c=4 d=273 p=2626 r=0 l=4 vars=1055 clauses=2385
solve c=194 d=29293 p=377474 r=2 l=194 vars=3622 clauses=10001
solve c=59 d=3869 p=146359 r=0 l=59 vars=7260 clauses=20879
solve c=9 d=463 p=24664 r=0 l=9 vars=11985 clauses=35019
solve c=8 d=2464 p=119418 r=0 l=8 vars=17797 clauses=52421
solve c=9 d=1786 p=121498 r=0 l=9 vars=24696 clauses=73085
solve c=8 d=1607 p=147210 r=0 l=8 vars=32682 clauses=97011
solve c=11 d=2892 p=331472 r=0 l=11 vars=41755 clauses=124199`},
		{"vending-budget", pinInduction("vending_machine/FuncCondition-0", formal.Options{MaxConflicts: 60}), `
eq=true unbounded=false depth=8 nodes=5009
solve c=5 d=99 p=862 r=0 l=4 vars=382 clauses=1026
solve c=25 d=157 p=5003 r=0 l=22 vars=1063 clauses=3036
solve c=14 d=103 p=5887 r=0 l=14 vars=1847 clauses=5322
solve c=60 d=200 p=17916 r=0 l=59 vars=2734 clauses=7922`},
		{"bmc-acc", pinBMCSources(formal.AccAdd, formal.AccSub, "acc", formal.Options{}), `
eq=true unbounded=false depth=8 nodes=1862
solve c=44 d=67 p=1285 r=0 l=43 vars=104 clauses=285
solve c=421 d=687 p=23969 r=5 l=420 vars=346 clauses=984
solve c=458 d=796 p=24605 r=5 l=457 vars=590 clauses=1689
solve c=347 d=686 p=18679 r=4 l=346 vars=834 clauses=2394
solve c=367 d=645 p=17811 r=4 l=366 vars=1078 clauses=3099
solve c=347 d=631 p=18605 r=4 l=346 vars=1322 clauses=3804
solve c=437 d=801 p=23382 r=5 l=436 vars=1566 clauses=4509
solve c=402 d=759 p=21750 r=5 l=401 vars=1810 clauses=5214`},
		{"bmc-acc-budget", pinBMCSources(formal.AccAdd, formal.AccSub, "acc", formal.Options{MaxConflicts: 200}), `
eq=false unbounded=false depth=0 nodes=356
solve c=44 d=67 p=1285 r=0 l=43 vars=104 clauses=285
solve c=200 d=285 p=11344 r=2 l=199 vars=346 clauses=984
err formal: solver conflict budget exhausted: depth 1 after 244 conflicts`},
		{"bmc-minimize-cex", pinBMC("lifo_stack/FuncBitwidth-0", formal.Options{MinimizeCex: true}), `
eq=false unbounded=false depth=4 nodes=2260
solve c=154 d=417 p=19290 r=2 l=151 vars=678 clauses=1947
solve c=223 d=898 p=42083 r=2 l=219 vars=1400 clauses=3939
solve c=370 d=1491 p=96904 r=4 l=370 vars=2122 clauses=6003
raw cycle=4 signal=dout weight=18 | 0: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 1: din=0x10 pop=0x0 push=0x1 rst_n=0x1 | 2: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 3: din=0x9d pop=0x1 push=0x1 rst_n=0x1 | 4: din=0x40 pop=0x0 push=0x1 rst_n=0x1
cex cycle=4 signal=dout weight=11 | 0: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 1: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 2: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 3: din=0x0 pop=0x0 push=0x1 rst_n=0x1 | 4: din=0x80 pop=0x0 push=0x1 rst_n=0x1`},
		{"assert-sat9-unbounded", pinAssertion(formal.ModSaturate, "sat9", assert.Bound{Signal: "q", Limit: 9}), `
bound_q proved unbounded=true depth=2 nodes=142
solve c=0 d=4 p=33 r=0 l=0 vars=33 clauses=84
solve c=4 d=6 p=117 r=0 l=3 vars=80 clauses=224`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if want := strings.TrimPrefix(tc.want, "\n"); got != want {
				t.Errorf("search diverged from the pinned record\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// statsLine renders one call's verdict and every per-call work counter.
func statsLine(verdict string, cs formal.SolveStats) string {
	return fmt.Sprintf("%s c=%d d=%d p=%d r=%d l=%d vars=%d clauses=%d",
		verdict, cs.Conflicts, cs.Decisions, cs.Propagations, cs.Restarts, cs.Learned, cs.Vars, cs.Clauses)
}

// callVerdict classifies the most recent call of s.
func callVerdict(s *formal.Solver, sat bool) string {
	switch {
	case sat:
		return "sat"
	case s.Exhausted():
		return "exhausted"
	}
	return "unsat"
}

// pinMiter solves BenchmarkSATSolve's reassociation miter at width 8
// through NewSolverCNF. With a positive budget the solve is resumed after
// every exhausted call, one line per call.
func pinMiter(budget int) func(t *testing.T) string {
	return func(t *testing.T) string {
		g := formal.NewAIG()
		const w = 8
		x, y, z := g.VarVec(w), g.VarVec(w), g.VarVec(w)
		miter := g.EqVec(g.AddVec(g.AddVec(x, y), z), g.AddVec(x, g.AddVec(y, z))).Not()
		cnf, _ := g.Tseitin([]formal.Lit{miter})
		s := formal.NewSolverCNF(cnf)
		s.MaxConflicts = budget
		var lines []string
		for calls := 0; calls < 100; calls++ {
			sat := s.Solve()
			lines = append(lines, statsLine(callVerdict(s, sat), s.CallStats()))
			if !s.Exhausted() {
				break
			}
		}
		return strings.Join(lines, "\n")
	}
}

// pinRandom3SAT solves a seeded family of random 3-SAT instances near the
// phase transition, each on one solver under a sequence of assumption
// sets, so learned clauses and saved phases carry between calls. A
// satisfiable call records its model, an assumption failure its final
// conflict and the locally minimal core MinimizeCore derives from it.
func pinRandom3SAT(t *testing.T) string {
	rng := rand.New(rand.NewSource(13))
	var lines []string
	for inst := 0; inst < 6; inst++ {
		const nVars = 80
		s := formal.NewSolver(nVars)
		for i := 0; i < 4*nVars-8; i++ {
			var cl []int
			for j := 0; j < 3; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl = append(cl, v)
			}
			s.AddClause(cl...)
		}
		for call := 0; call < 5; call++ {
			var assume []int
			for j := 0; j < 6; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				assume = append(assume, v)
			}
			sat := s.SolveAssuming(assume...)
			line := fmt.Sprintf("%d.%d %s", inst, call, statsLine(callVerdict(s, sat), s.CallStats()))
			switch core := s.UnsatCore(); {
			case sat:
				model := make([]byte, nVars/8)
				for v := 1; v <= nVars; v++ {
					if s.Value(v) {
						model[(v-1)/8] |= 1 << ((v - 1) % 8)
					}
				}
				line += fmt.Sprintf(" model=%x", model)
			case core != nil:
				line += fmt.Sprintf(" core=%v min=%v", core, s.MinimizeCore())
				line += " " + statsLine("total", s.Stats())
			}
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

// pinInduction runs one dataset (golden, mutant) pair through
// InductionEquivOpts at the conventional depth and records it with
// equivRecord.
func pinInduction(id string, opts formal.Options) func(t *testing.T) string {
	return func(t *testing.T) string {
		a, b, clock := datasetPair(t, id)
		return equivRecord(formal.InductionEquivOpts(a, b, clock, formal.DefaultBMCDepth, opts))
	}
}

// pinBMC is pinInduction through BMCEquivOpts: the base path alone.
func pinBMC(id string, opts formal.Options) func(t *testing.T) string {
	return func(t *testing.T) string {
		a, b, clock := datasetPair(t, id)
		return equivRecord(formal.BMCEquivOpts(a, b, clock, formal.DefaultBMCDepth, opts))
	}
}

// pinBMCSources runs BMCEquivOpts at the conventional depth on two
// sources of one top module clocked by clk.
func pinBMCSources(srcA, srcB, top string, opts formal.Options) func(t *testing.T) string {
	return func(t *testing.T) string {
		return equivRecord(formal.BMCEquivOpts(compile(t, srcA, top), compile(t, srcB, top), "clk",
			formal.DefaultBMCDepth, opts))
	}
}

// pinAssertion runs one assertion through InductionAssertions at the
// conventional depth and records its verdict and every solve.
func pinAssertion(src, top string, a assert.Assertion) func(t *testing.T) string {
	return func(t *testing.T) string {
		rs, err := formal.InductionAssertions(compile(t, src, top), "clk", []assert.Assertion{a}, formal.DefaultBMCDepth)
		if err != nil {
			t.Fatal(err)
		}
		r := rs[0]
		lines := []string{fmt.Sprintf("%s %v unbounded=%v depth=%d nodes=%d",
			r.Assertion.Name(), r.Verdict, r.Unbounded, r.Depth, r.Stats.AIGNodes)}
		for _, cs := range r.Stats.Solves {
			lines = append(lines, statsLine("solve", cs))
		}
		if r.Cex != nil {
			lines = append(lines, "cex "+cexLine(r.Cex))
		}
		return strings.Join(lines, "\n")
	}
}

// datasetPair compiles one dataset fault's (golden, mutant) pair.
func datasetPair(t *testing.T, id string) (a, b *sim.Program, clock string) {
	t.Helper()
	mod, _, _ := strings.Cut(id, "/")
	m := dataset.ByName(mod)
	var mutant string
	for _, c := range faultgen.FunctionalClasses() {
		for _, f := range faultgen.Generate(m, c) {
			if f.ID == id {
				mutant = f.Source
			}
		}
	}
	if mutant == "" {
		t.Fatalf("fault %s not generated", id)
	}
	return compile(t, m.Source, m.Top), compile(t, mutant, m.Top), m.Clock
}

// compile compiles one source on the compiled backend or fails the test.
func compile(t *testing.T, src, top string) *sim.Program {
	t.Helper()
	p, err := sim.CompileSource(src, top, sim.BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// equivRecord renders an equivalence check: the verdict, every
// per-depth solve, the raw and final counterexamples and the error.
func equivRecord(res formal.EquivResult, err error) string {
	lines := []string{fmt.Sprintf("eq=%v unbounded=%v depth=%d nodes=%d",
		res.Equivalent, res.Unbounded, res.Depth, res.Stats.AIGNodes)}
	for _, cs := range res.Stats.Solves {
		lines = append(lines, statsLine("solve", cs))
	}
	if res.RawCex != nil {
		lines = append(lines, "raw "+cexLine(res.RawCex))
	}
	if res.Cex != nil {
		lines = append(lines, "cex "+cexLine(res.Cex))
	}
	if err != nil {
		lines = append(lines, "err "+err.Error())
	}
	return strings.Join(lines, "\n")
}

// cexLine renders a counterexample: its divergence and every input of
// every cycle, in sorted name order.
func cexLine(c *formal.Counterexample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d signal=%s weight=%d", c.Cycle, c.Signal, c.Weight())
	for i, in := range c.Inputs {
		names := make([]string, 0, len(in))
		for n := range in {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, " | %d:", i)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%#x", n, in[n])
		}
	}
	return b.String()
}
