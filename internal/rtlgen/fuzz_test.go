package rtlgen

import (
	"errors"
	"testing"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
)

// FuzzBackendsAgree drives the generator with fuzzer-chosen seeds and
// requires the full differential contract on every generated design: both
// backends byte-identical on traces/VCD/coverage, the scheduling path
// matching the constructed flavor, and printer round-trip stability.
//
// Seed corpus: committed under testdata/fuzz/FuzzBackendsAgree. Run
// locally with:
//
//	go test ./internal/rtlgen -run=^$ -fuzz=FuzzBackendsAgree -fuzztime=30s
func FuzzBackendsAgree(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(-1))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		d := Generate(seed)
		rep, err := DiffBackends(d.Source, d.Top, d.Clock, 25, seed)
		if err != nil {
			t.Fatalf("seed %d (%s): backends diverged: %v\n%s", seed, d.Flavor, err, d.Source)
		}
		if !rep.Elaborated {
			t.Fatalf("seed %d: generated design failed to elaborate\n%s", seed, d.Source)
		}
		if d.Flavor.WantsFallback() == rep.Levelized {
			t.Fatalf("seed %d: flavor %s but levelized=%v (reason %q)\n%s",
				seed, d.Flavor, rep.Levelized, rep.FallbackReason, d.Source)
		}
		if err := RoundTrip(d.Source); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// FuzzFormalAgreesWithSim is the formal engine's differential fuzz
// target: for a fuzzer-chosen generated design and faultgen mutant, the
// bounded-equivalence verdict must agree with simulation in both
// directions — a SAT verdict must replay as a concrete divergence at the
// predicted cycle, and an UNSAT-to-depth-k verdict must survive seeded
// random simulation probes of the same depth. Designs or mutants outside
// the bit-blastable subset (event-fallback flavors, budget-exhausted
// miters) are skipped: the backends oracle owns those.
//
// Seed corpus: committed under testdata/fuzz/FuzzFormalAgreesWithSim. Run
// locally with:
//
//	go test ./internal/rtlgen -run=^$ -fuzz=FuzzFormalAgreesWithSim -fuzztime=30s
func FuzzFormalAgreesWithSim(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed%4), uint8(0))
	}
	f.Add(int64(22), uint8(3), uint8(2))
	f.Add(int64(1<<33), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, classSel, mutSel uint8) {
		d := Generate(seed)
		if d.Flavor.WantsFallback() {
			return
		}
		classes := faultgen.FunctionalClasses()
		class := classes[int(classSel)%len(classes)]
		muts := faultgen.MutateSource(d.Source, class)
		if len(muts) == 0 {
			return
		}
		mu := muts[int(mutSel)%len(muts)]
		checked, _, _, err := formalAgreeMutant(d, mu.Source, 4)
		if err != nil {
			t.Fatalf("seed %d class %s (%s): formal disagreed with simulation: %v\n%s",
				seed, class, mu.Descr, err, d.Source)
		}
		_ = checked
	})
}

// FuzzInductionAgreesWithBMC is the k-induction soundness fuzz target:
// for a fuzzer-chosen generated design and faultgen mutant, the
// induction verdict at depth 4 is cross-examined with the strongest
// independent evidence available. An unbounded proof must survive plain
// BMC unrolled well past the induction base (depth 3k+2) and deeper
// random simulation probes; a refutation must match plain BMC's verdict
// and depth and replay in simulation. Any disagreement is an engine
// bug — most likely an unsound inductive step. Designs or mutants
// outside the bit-blastable subset are skipped.
//
// Seed corpus: committed under testdata/fuzz/FuzzInductionAgreesWithBMC.
// Run locally with:
//
//	go test ./internal/rtlgen -run=^$ -fuzz=FuzzInductionAgreesWithBMC -fuzztime=30s
func FuzzInductionAgreesWithBMC(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed%4), uint8(seed%3))
	}
	f.Add(int64(37), uint8(2), uint8(1))
	f.Add(int64(1<<35), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, classSel, mutSel uint8) {
		d := Generate(seed)
		if d.Flavor.WantsFallback() {
			return
		}
		classes := faultgen.FunctionalClasses()
		class := classes[int(classSel)%len(classes)]
		muts := faultgen.MutateSource(d.Source, class)
		if len(muts) == 0 {
			return
		}
		mu := muts[int(mutSel)%len(muts)]
		if err := inductionAgreesWithBMC(d, mu.Source, 4); err != nil {
			t.Fatalf("seed %d class %s (%s): induction disagreed with BMC/simulation: %v\n%s",
				seed, class, mu.Descr, err, d.Source)
		}
	})
}

// FuzzBitSimAgreesWithSim is the lane engines' differential fuzz target:
// for a fuzzer-chosen generated design, lane count and cycle budget, the
// sim.Batch lanes and (on the bit-parallel subset) the psim lanes must
// stay byte-identical to standalone harness runs — outputs, errors,
// waveforms, VCD bytes, coverage and final state, with staggered lane
// retirement in the mix (DiffLanes).
//
// Seed corpus: committed under testdata/fuzz/FuzzBitSimAgreesWithSim. Run
// locally with:
//
//	go test ./internal/rtlgen -run=^$ -fuzz=FuzzBitSimAgreesWithSim -fuzztime=30s
func FuzzBitSimAgreesWithSim(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(16))
	}
	f.Add(int64(-1), uint8(65), uint8(3))
	f.Add(int64(1<<40), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, lanesSel, cyclesSel uint8) {
		d := Generate(seed)
		lanes := int(lanesSel)%12 + 1
		cycles := int(cyclesSel)%24 + 2
		if _, err := DiffLanes(d.Source, d.Top, d.Clock, lanes, cycles, seed); err != nil {
			t.Fatalf("seed %d (%s) lanes %d cycles %d: lane engines diverged: %v\n%s",
				seed, d.Flavor, lanes, cycles, err, d.Source)
		}
	})
}

// FuzzParserRoundTrip feeds arbitrary text to the parser and requires that
// anything it accepts survives print->parse->print byte-identically (the
// printed form must reparse cleanly and be a fixpoint). Inputs the parser
// rejects are skipped — rejection is not a round-trip property.
//
// Seed corpus: every dataset module plus committed samples under
// testdata/fuzz/FuzzParserRoundTrip. Run locally with:
//
//	go test ./internal/rtlgen -run=^$ -fuzz=FuzzParserRoundTrip -fuzztime=30s
func FuzzParserRoundTrip(f *testing.F) {
	for _, m := range dataset.All() {
		f.Add(m.Source)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(Generate(seed).Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := RoundTrip(src); err != nil && !errors.Is(err, ErrUnparseable) {
			t.Fatalf("round-trip instability: %v", err)
		}
	})
}
