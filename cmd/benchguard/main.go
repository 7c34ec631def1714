// Command benchguard is the CI bench-regression gate for the hot paths:
// the compiled simulation loop, the end-to-end verification pipeline, a
// cold compile (parse, elaborate, lower), the front end (parse, lint),
// one UVM testbench run, instance creation, the lane engines with the
// bit-parallel engine's layout conversions (transpose, stimulus
// bit-slicing) and the formal engine (bit-blasting, SAT solving,
// bounded equivalence). It parses `go test
// -bench` output, reduces each benchmark to its best (minimum ns/op) run
// across -count repetitions, and compares against the committed
// BENCH_baseline.json:
//
//	go test -run XXX -bench 'Benchmark(Sim(EventDriven|Compiled|CompiledObs)|PipelineVerify|CompileCold|BitBlast|SATSolve|BMCEquivIncremental|Batch(Lanes|VsSequential)|BitSim(Lanes|Transpose|Pack)|CoverageDirected|VerilogParse|Lint|UVMRun|ProgramNewInstance)$' -count=5 . | tee bench.txt
//	go run ./cmd/benchguard -bench bench.txt -baseline BENCH_baseline.json
//
// Raw ns/op is machine-dependent, so every guarded quantity is a ratio
// against BenchmarkSimEventDriven measured in the same run — the
// reference interpreter cancels the host's absolute speed. Every entry
// of the baseline file other than the event reference itself is guarded:
// its within-run ratio must stay within -tolerance of the baseline's
// ratio, and BenchmarkSimCompiled must additionally stay strictly below
// 1.0 (the compiled backend must remain faster than the interpreter).
// Benchmarks the baseline file predates are not guarded, so new hot
// paths roll out by adding a baseline line.
//
// Pair rules hold architectural claims independent of the baseline:
// row-driven batch lanes against map-driven harnesses, the bit-parallel
// per-lane floor, and the observability layer's zero-overhead claim:
// BenchmarkSimCompiledObs (hot loop with a live registry counter) must
// stay within 15% of BenchmarkSimCompiled in the same run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference measurement.
type Baseline struct {
	Note       string             `json:"note"`
	Machine    string             `json:"machine"`
	Tolerance  float64            `json:"tolerance"`  // allowed relative ratio regression, e.g. 0.20
	Benchmarks map[string]float64 `json:"benchmarks"` // name -> ns/op on the reference machine
}

const (
	benchEvent       = "BenchmarkSimEventDriven"
	benchCompiled    = "BenchmarkSimCompiled"
	benchCompiledObs = "BenchmarkSimCompiledObs"
	benchBatch       = "BenchmarkBatchLanes"
	benchBatchSeq    = "BenchmarkBatchVsSequential"
	benchBitSim      = "BenchmarkBitSimLanes"
)

// batchMinSpeedup is the acceptance bar for row-driven lanes: the same
// K-lane hot-loop work must be at least this factor cheaper in one
// sim.Batch (K harnesses under row stimulus) than as K standalone
// harnesses under map stimulus. The two benchmarks do identical total
// work, so their within-run ns/op ratio is the per-lane factor directly.
const batchMinSpeedup = 1.5

// Lane counts of the per-lane normalized pair: BenchmarkBatchLanes runs
// 8 lanes per iteration, BenchmarkBitSimLanes 64. Keep in sync with
// batchBenchLanes / bitSimLanes in bench_test.go.
const (
	batchBenchLanes = 8
	bitSimLanes     = 64
)

// bitSimMinSpeedup is the acceptance bar for the bit-parallel engine:
// its per-lane cycle cost (ns/op divided by its 64 lanes) must be at
// least this factor below sim.Batch's per-lane cost (ns/op divided by
// its 8 lanes) on the same module mix and cycle count.
const bitSimMinSpeedup = 4.0

// obsMaxOverhead is the acceptance bar for the observability layer's
// zero-overhead claim: the compiled simulation hot loop with a live
// registry counter attached (BenchmarkSimCompiledObs) may cost at most
// this factor of the uninstrumented loop (BenchmarkSimCompiled) in the
// same run. The instrumented path is one atomic add per cycle, so the
// bar is mostly noise allowance.
const obsMaxOverhead = 1.15

func main() {
	var (
		benchPath    = flag.String("bench", "", "go test -bench output file (default stdin)")
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
		tolerance    = flag.Float64("tolerance", 0, "override the baseline tolerance (0 = use file)")
	)
	flag.Parse()

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	tol := base.Tolerance
	if *tolerance > 0 {
		tol = *tolerance
	}
	if tol <= 0 {
		tol = 0.20
	}

	in := os.Stdin
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	best, err := parseBench(in)
	if err != nil {
		fatal(err)
	}

	ev, okE := best[benchEvent]
	if !okE {
		fatal(fmt.Errorf("bench output missing %s (got %v)", benchEvent, names(best)))
	}
	baseEv, okE := base.Benchmarks[benchEvent]
	if !okE || baseEv <= 0 {
		fatal(fmt.Errorf("baseline missing %s", benchEvent))
	}

	// Every other baseline entry is guarded the same way: its within-run
	// ratio against the event-driven reference must stay within tolerance
	// of the baseline's ratio. Entries the baseline predates are simply
	// not guarded, so new benchmarks roll out by adding a baseline line.
	var guarded []string
	for name, ns := range base.Benchmarks {
		if name != benchEvent && ns > 0 {
			guarded = append(guarded, name)
		}
	}
	sort.Strings(guarded)
	failed := false
	for _, name := range guarded {
		got, ok := best[name]
		if !ok {
			fatal(fmt.Errorf("baseline guards %s but the bench output does not contain it", name))
		}
		ratio := got / ev
		baseRatio := base.Benchmarks[name] / baseEv
		fmt.Printf("benchguard: %s %.0f ns/op, ratio %.3f vs event (baseline %.3f, tolerance %.0f%%)\n",
			name, got, ratio, baseRatio, tol*100)
		if name == benchCompiled && ratio >= 1.0 {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL: compiled backend is no longer faster than event-driven (ratio %.3f)\n", ratio)
			failed = true
		}
		if ratio > baseRatio*(1+tol) {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL: %s regressed: ratio %.3f vs baseline %.3f (>%.0f%% slower relative to the event backend)\n",
				name, ratio, baseRatio, tol*100)
			failed = true
		}
	}
	// Pair rule: whenever both batch benchmarks are in the run, the
	// per-lane speedup of row-driven batch lanes over K map-driven
	// standalone instances must hold the acceptance bar, regardless of
	// the baseline's ratios.
	if bl, ok := best[benchBatch]; ok {
		if sq, ok := best[benchBatchSeq]; ok {
			speedup := sq / bl
			fmt.Printf("benchguard: batch per-lane speedup %.2fx (%s %.0f ns/op vs %s %.0f ns/op, floor %.1fx)\n",
				speedup, benchBatch, bl, benchBatchSeq, sq, batchMinSpeedup)
			if speedup < batchMinSpeedup {
				fmt.Fprintf(os.Stderr, "benchguard: FAIL: batch per-lane speedup %.2fx fell below the %.1fx floor\n",
					speedup, batchMinSpeedup)
				failed = true
			}
		}
	}
	// Pair rule: whenever both lane benchmarks are in the run, the
	// bit-parallel engine's per-lane cost must beat sim.Batch's per-lane
	// cost by the acceptance bar. The benchmarks run different
	// lane counts, so each side is normalized to ns per lane first.
	if bl, ok := best[benchBatch]; ok {
		if bp, ok := best[benchBitSim]; ok {
			perBatch := bl / batchBenchLanes
			perBit := bp / bitSimLanes
			speedup := perBatch / perBit
			fmt.Printf("benchguard: bit-parallel per-lane speedup %.2fx (%s %.0f ns/lane vs %s %.0f ns/lane, floor %.1fx)\n",
				speedup, benchBitSim, perBit, benchBatch, perBatch, bitSimMinSpeedup)
			if speedup < bitSimMinSpeedup {
				fmt.Fprintf(os.Stderr, "benchguard: FAIL: bit-parallel per-lane speedup %.2fx fell below the %.1fx floor\n",
					speedup, bitSimMinSpeedup)
				failed = true
			}
		}
	}
	// Pair rule: whenever both sides of the observability pair are in
	// the run, the instrumented hot loop must stay within the
	// zero-overhead bar of the uninstrumented one — the enforced form of
	// internal/obs's "one atomic when enabled" claim.
	if plain, ok := best[benchCompiled]; ok {
		if instr, ok := best[benchCompiledObs]; ok {
			overhead := instr / plain
			fmt.Printf("benchguard: obs instrumentation overhead %.3fx (%s %.0f ns/op vs %s %.0f ns/op, ceiling %.2fx)\n",
				overhead, benchCompiledObs, instr, benchCompiled, plain, obsMaxOverhead)
			if overhead > obsMaxOverhead {
				fmt.Fprintf(os.Stderr, "benchguard: FAIL: instrumented sim loop costs %.3fx the plain loop (> %.2fx) — the obs hot path regressed\n",
					overhead, obsMaxOverhead)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}

func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// parseBench extracts min ns/op per benchmark from `go test -bench` output
// lines of the form "BenchmarkName-8   100   123456 ns/op ...". The -N
// GOMAXPROCS suffix is stripped.
func parseBench(f *os.File) (map[string]float64, error) {
	best := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		nsIdx := -1
		for i, tok := range fields {
			if tok == "ns/op" {
				nsIdx = i - 1
				break
			}
		}
		if nsIdx < 1 {
			continue
		}
		ns, err := strconv.ParseFloat(fields[nsIdx], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		if cur, ok := best[name]; !ok || ns < cur {
			best[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return best, nil
}

func names(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
