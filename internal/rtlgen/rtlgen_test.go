package rtlgen

import (
	"strings"
	"testing"

	"uvllm/internal/verilog"
)

// TestSweep is the acceptance gate for the generator + differential
// subsystem: it sweeps a deterministic band of seeds and requires that (a)
// at least 300 distinct designs elaborate and diff clean across backends,
// (b) every design lands on exactly the scheduling path its flavor was
// constructed for, (c) at least 25% of designs exercise the
// event-fallback path, so the fuzzer keeps covering both engines, (d)
// on a strided subset of the small levelized designs the formal engine's
// bounded-equivalence verdicts agree with simulation (the fourth oracle:
// golden provably self-equivalent, mutant refutations replayable, bounded
// proofs unrefuted by random probes), and (e) on a strided subset both
// lane engines diff byte-identical against standalone runs (the fifth
// oracle), with designs on and off the bit-parallel subset exercised.
func TestSweep(t *testing.T) {
	const (
		seeds        = 330
		formalStride = formalSweepStride // sparser under -race, see stride_off_test.go
		formalDepth  = 4
		bitStride    = 3
	)
	distinct := map[string]bool{}
	total, fallback := 0, 0
	formalChecked, formalMutants, formalRefuted := 0, 0, 0
	bitChecked, bitParallel := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		d := Generate(seed)
		rep, err := DiffBackends(d.Source, d.Top, d.Clock, 40, seed)
		if err != nil {
			t.Fatalf("seed %d (%s): backends diverged: %v\n%s", seed, d.Flavor, err, d.Source)
		}
		if !rep.Elaborated {
			t.Fatalf("seed %d (%s): generated design failed to elaborate\n%s", seed, d.Flavor, d.Source)
		}
		if d.Flavor.WantsFallback() == rep.Levelized {
			t.Fatalf("seed %d: flavor %s but levelized=%v (reason %q)\n%s",
				seed, d.Flavor, rep.Levelized, rep.FallbackReason, d.Source)
		}
		total++
		if !rep.Levelized {
			fallback++
		}
		if rep.Levelized && seed%formalStride == 1 {
			frep, err := DiffFormal(d, formalDepth, 1)
			if err != nil {
				t.Fatalf("seed %d: formal oracle disagreed with simulation: %v\n%s", seed, err, d.Source)
			}
			if frep.Supported {
				formalChecked++
				formalMutants += frep.Mutants
				formalRefuted += frep.Refuted
			}
		}
		if seed%bitStride == 1 {
			bp, err := DiffLanes(d.Source, d.Top, d.Clock, 5, 20, seed)
			if err != nil {
				t.Fatalf("seed %d: lane oracle diverged: %v\n%s", seed, err, d.Source)
			}
			bitChecked++
			if bp {
				bitParallel++
			}
		}
		// Distinctness is judged on the body: the module name embeds the
		// seed and would make every source trivially unique.
		distinct[bodyOf(d.Source)] = true
	}
	if len(distinct) < 300 {
		t.Fatalf("only %d distinct designs out of %d seeds (want >= 300)", len(distinct), total)
	}
	if frac := float64(fallback) / float64(total); frac < 0.25 {
		t.Fatalf("only %.1f%% of designs exercised the event-fallback path (want >= 25%%)", frac*100)
	}
	if min := 60 / formalStride; formalChecked < min {
		t.Fatalf("formal oracle covered only %d levelized designs (want >= %d)", formalChecked, min)
	}
	if formalRefuted == 0 {
		t.Fatal("formal oracle refuted no mutants: the SAT/replay path went unexercised")
	}
	if bitParallel == 0 {
		t.Fatal("lane oracle never took the psim leg")
	}
	if bitParallel == bitChecked {
		t.Fatal("lane oracle never ran a design on the batch alone")
	}
	t.Logf("swept %d designs (%d distinct, %d event-fallback = %.1f%%); formal agreed on %d designs / %d mutants (%d refuted); lane engines agreed on %d designs (%d with the psim leg)",
		total, len(distinct), fallback, 100*float64(fallback)/float64(total),
		formalChecked, formalMutants, formalRefuted, bitChecked, bitParallel)
}

func bodyOf(src string) string {
	if i := strings.Index(src, "\n"); i >= 0 {
		return src[i+1:]
	}
	return src
}

// TestDeterminism pins the generator contract: the same seed yields
// byte-identical source, and neighboring seeds yield different designs.
func TestDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Source != b.Source {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
	if Generate(1).Source == Generate(2).Source {
		t.Fatal("seeds 1 and 2 generated identical designs")
	}
}

// TestGeneratedRoundTrip requires every generated design to be a printer
// fixpoint: the generator emits canonical ASTs, so parse+print must
// reproduce the source bytes, and the general round-trip oracle must hold.
func TestGeneratedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		d := Generate(seed)
		f, errs := verilog.Parse(d.Source)
		if len(errs) > 0 {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, errs[0], d.Source)
		}
		if got := verilog.Print(f); got != d.Source {
			t.Fatalf("seed %d: generated source is not canonical\n--- generated ---\n%s\n--- reprinted ---\n%s",
				seed, d.Source, got)
		}
		if err := RoundTrip(d.Source); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestMutantDivergence is the third oracle: faultgen's functional classes
// applied to generated designs must keep both backends in agreement on
// every mutant, and a healthy share of mutants must diverge observably
// from their golden original (mutations that stopped biting would mean the
// fault generator no longer stresses generated RTL).
func TestMutantDivergence(t *testing.T) {
	var agg MutantStats
	for seed := int64(1); seed <= 40; seed++ {
		d := Generate(seed)
		st, err := DiffMutants(d, 50, 2)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, d.Source)
		}
		agg.Total += st.Total
		agg.Diverged += st.Diverged
	}
	if agg.Total < 40 {
		t.Fatalf("only %d functional mutants were diffable (want >= 40)", agg.Total)
	}
	// Equivalent mutants are expected (mutations landing in dead branches),
	// but a healthy share must reach the checksum output.
	if frac := float64(agg.Diverged) / float64(agg.Total); frac < 0.15 {
		t.Fatalf("only %.1f%% of %d mutants diverged from golden (want >= 15%%)", frac*100, agg.Total)
	}
	t.Logf("diffed %d mutants, %d diverged from golden (%.1f%%)",
		agg.Total, agg.Diverged, 100*float64(agg.Diverged)/float64(agg.Total))
}

// TestFlavorCoverage checks that the seed band exercises every fallback
// flavor at least once — a generator regression that stopped emitting one
// construct class would silently narrow fuzz coverage.
func TestFlavorCoverage(t *testing.T) {
	seen := map[Flavor]int{}
	for seed := int64(1); seed <= 330; seed++ {
		seen[Generate(seed).Flavor]++
	}
	for _, fl := range append([]Flavor{FlavorLevelized}, fallbackFlavors...) {
		if seen[fl] == 0 {
			t.Errorf("flavor %s never generated in the seed band", fl)
		}
	}
	t.Logf("flavor histogram: %v", seen)
}
