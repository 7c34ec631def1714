package rtlgen

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
	"uvllm/internal/verilog"
)

// DiffReport summarizes one cross-backend differential run.
type DiffReport struct {
	Elaborated     bool   // both backends constructed successfully
	Levelized      bool   // the compiled backend ran the levelized sweep
	FallbackReason string // why not, when it did not
	Cycles         int    // cycles actually compared
}

// diffCache amortizes compilation across the differential pipeline: the
// golden design is recompiled for every mutant in DiffMutants, and the
// 330-seed sweep replays designs the fuzz corpus already contains. The
// limit is deliberately small — fuzzing feeds an endless stream of
// distinct sources, and evicted entries just recompile.
var diffCache = sim.NewCacheLimit(512)

// newSim compiles src through the shared cache and allocates an instance,
// preserving CompileAndNewBackend's construction-error surface (parse and
// elaboration errors from the cached compile, reset-time errors from the
// fresh instance).
func newSim(src, top string, backend sim.Backend) (*sim.Instance, error) {
	return diffCache.Instance(src, top, backend)
}

// DiffBackends simulates src on the event-driven and compiled backends
// under an identical seeded stimulus stream and compares every observable:
// per-cycle output ports, the full recorded waveform, its VCD rendering,
// coverage counts and the final internal signal state. A non-nil error is a
// genuine divergence (the bug case); designs that fail identically on both
// backends — elaboration errors, oscillation — agree by definition.
func DiffBackends(src, top, clock string, cycles int, seed int64) (DiffReport, error) {
	var rep DiffReport
	sE, errE := newSim(src, top, sim.BackendEventDriven)
	sC, errC := newSim(src, top, sim.BackendCompiled)
	if (errE == nil) != (errC == nil) {
		return rep, fmt.Errorf("construction diverged: event=%v compiled=%v", errE, errC)
	}
	if errE != nil {
		if errE.Error() != errC.Error() {
			return rep, fmt.Errorf("construction errors differ:\n event:    %v\n compiled: %v", errE, errC)
		}
		return rep, nil
	}
	rep.Elaborated = true
	rep.Levelized = sC.Levelized()
	rep.FallbackReason = sC.FallbackReason()

	hE := sim.NewHarness(sE, clock)
	hC := sim.NewHarness(sC, clock)
	covE := uvm.NewCoverage(sE.Design())
	covC := uvm.NewCoverage(sC.Design())
	// Structural coverage joins the observable set: the encoded maps must
	// be byte-identical across backends, which additionally cross-checks
	// the compiled condition probes against the interpreter's evaluator.
	if err := hE.EnableCover(sim.CoverAll()); err != nil {
		return rep, fmt.Errorf("cover (event): %v", err)
	}
	if err := hC.EnableCover(sim.CoverAll()); err != nil {
		return rep, fmt.Errorf("cover (compiled): %v", err)
	}

	rstE := hE.ApplyReset(2)
	rstC := hC.ApplyReset(2)
	if !errEqual(rstE, rstC) {
		return rep, fmt.Errorf("reset diverged: event=%v compiled=%v", rstE, rstC)
	}
	if rstE != nil {
		return rep, nil
	}

	rng := rand.New(rand.NewSource(seed))
	inputs := sE.Design().Inputs()
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]uint64{}
		for _, p := range inputs {
			if p.Name == clock {
				continue
			}
			in[p.Name] = rng.Uint64() & verilog.Mask(p.Width)
		}
		outE, cerrE := hE.Cycle(in)
		outC, cerrC := hC.Cycle(in)
		if !errEqual(cerrE, cerrC) {
			return rep, fmt.Errorf("cycle %d diverged: event=%v compiled=%v", cyc, cerrE, cerrC)
		}
		if cerrE != nil {
			return rep, nil // both died identically; trace prefix already compared
		}
		for sigName, v := range outE {
			if outC[sigName] != v {
				return rep, fmt.Errorf("cycle %d signal %s: event=0x%x compiled=0x%x", cyc, sigName, v, outC[sigName])
			}
		}
		covE.Sample(in, outE)
		covC.Sample(in, outC)
		rep.Cycles++
	}

	if hE.Wave.Cycles() != hC.Wave.Cycles() {
		return rep, fmt.Errorf("waveform length: event=%d compiled=%d", hE.Wave.Cycles(), hC.Wave.Cycles())
	}
	for _, n := range hE.Wave.Names() {
		for cyc := 0; cyc < hE.Wave.Cycles(); cyc++ {
			if hE.Wave.At(n, cyc) != hC.Wave.At(n, cyc) {
				return rep, fmt.Errorf("waveform %s@%d: event=0x%x compiled=0x%x",
					n, cyc, hE.Wave.At(n, cyc), hC.Wave.At(n, cyc))
			}
		}
	}
	var vcdE, vcdC bytes.Buffer
	if err := sim.WriteVCD(&vcdE, hE.Wave, sE.Design(), top); err != nil {
		return rep, fmt.Errorf("vcd: %v", err)
	}
	if err := sim.WriteVCD(&vcdC, hC.Wave, sC.Design(), top); err != nil {
		return rep, fmt.Errorf("vcd: %v", err)
	}
	if !bytes.Equal(vcdE.Bytes(), vcdC.Bytes()) {
		return rep, errors.New("VCD output differs")
	}
	if covE.Percent() != covC.Percent() || covE.Report() != covC.Report() {
		return rep, fmt.Errorf("coverage diverged: event=%.4f compiled=%.4f", covE.Percent(), covC.Percent())
	}
	encE, encC := hE.Coverage().Encode(), hC.Coverage().Encode()
	if !bytes.Equal(encE, encC) {
		return rep, fmt.Errorf("structural coverage maps differ:\n--- event ---\n%s--- compiled ---\n%s", encE, encC)
	}
	for _, n := range sE.Design().SignalNames() {
		if sE.Get(n) != sC.Get(n) {
			return rep, fmt.Errorf("internal signal %s: event=0x%x compiled=0x%x", n, sE.Get(n), sC.Get(n))
		}
	}
	return rep, nil
}

// ErrUnparseable marks round-trip inputs the parser rejects; callers
// (fuzzers especially) skip these rather than failing.
var ErrUnparseable = errors.New("rtlgen: source does not parse")

// RoundTrip checks printer/parser stability: a parseable source, once
// canonically printed, must reparse without errors and reprint to the
// identical bytes (AST-stable fixpoint after one canonicalization pass).
func RoundTrip(src string) error {
	f, errs := verilog.Parse(src)
	if len(errs) > 0 {
		return fmt.Errorf("%w: %v", ErrUnparseable, errs[0])
	}
	p1 := verilog.Print(f)
	f1, errs := verilog.Parse(p1)
	if len(errs) > 0 {
		return fmt.Errorf("printed form does not reparse: %v\n--- printed ---\n%s", errs[0], p1)
	}
	p2 := verilog.Print(f1)
	if p1 != p2 {
		return fmt.Errorf("print not stable after reparse:\n--- first ---\n%s\n--- second ---\n%s", p1, p2)
	}
	return nil
}

// MutantStats aggregates the third oracle over one design's mutants.
type MutantStats struct {
	Total    int // parseable functional mutants diffed
	Diverged int // mutants observably different from their golden original
}

// DiffMutants applies every functional fault class to a generated design
// and checks two properties per parseable mutant: the two backends must
// agree on the mutant (the backend oracle extends to broken designs), and
// divergence from the golden original is recorded — a mutation that no
// longer changes observable behavior on any stimulus would mean faultgen's
// classes stopped biting on generated RTL. maxPerClass bounds work.
func DiffMutants(d *Design, cycles int, maxPerClass int) (MutantStats, error) {
	var st MutantStats
	for _, class := range faultgen.FunctionalClasses() {
		muts := faultgen.MutateSource(d.Source, class)
		if len(muts) > maxPerClass {
			muts = muts[:maxPerClass]
		}
		for _, mu := range muts {
			if _, errs := verilog.Parse(mu.Source); len(errs) > 0 {
				continue // functional classes can still yield broken text on exotic shapes
			}
			if _, err := DiffBackends(mu.Source, d.Top, d.Clock, cycles, d.Seed); err != nil {
				return st, fmt.Errorf("%s mutant (%s) backends diverged: %w", class, mu.Descr, err)
			}
			st.Total++
			div, err := tracesDiverge(d.Source, mu.Source, d.Top, d.Clock, cycles, d.Seed)
			if err != nil {
				return st, fmt.Errorf("%s mutant (%s): %w", class, mu.Descr, err)
			}
			if div {
				st.Diverged++
			}
		}
	}
	return st, nil
}

// tracesDiverge runs golden and mutant on the reference event-driven
// backend under identical stimulus and reports whether any observable
// differs. A mutant that fails to elaborate or dies mid-run while the
// golden does not is observably divergent.
func tracesDiverge(golden, mutant, top, clock string, cycles int, seed int64) (bool, error) {
	div, _, err := tracesDivergeOn(golden, mutant, top, clock, cycles, seed, sim.BackendEventDriven, nil)
	return div, err
}

// tracesDivergeOn is the shared divergence oracle: golden and mutant on
// one backend under identical seeded random stimulus, with any inputs
// named in frozen pinned to the given constant value each cycle. It
// reports whether any observable differed and at which cycle.
func tracesDivergeOn(golden, mutant, top, clock string, cycles int, seed int64, backend sim.Backend, frozen map[string]uint64) (bool, int, error) {
	sG, errG := newSim(golden, top, backend)
	if errG != nil {
		return false, 0, fmt.Errorf("golden failed to elaborate: %v", errG)
	}
	sM, errM := newSim(mutant, top, backend)
	if errM != nil {
		return true, 0, nil
	}
	hG := sim.NewHarness(sG, clock)
	hM := sim.NewHarness(sM, clock)
	if errEqual(hG.ApplyReset(2), hM.ApplyReset(2)) == false {
		return true, 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := sG.Design().Inputs()
	for cyc := 0; cyc < cycles; cyc++ {
		in := map[string]uint64{}
		for _, p := range inputs {
			if p.Name == clock {
				continue
			}
			if v, ok := frozen[p.Name]; ok {
				in[p.Name] = v
				continue
			}
			in[p.Name] = rng.Uint64() & verilog.Mask(p.Width)
		}
		outG, cerrG := hG.Cycle(in)
		outM, cerrM := hM.Cycle(copyIn(in, sM))
		if !errEqual(cerrG, cerrM) {
			return true, cyc, nil
		}
		if cerrG != nil {
			return false, 0, nil // both died identically
		}
		for sigName, v := range outG {
			if outM[sigName] != v {
				return true, cyc, nil
			}
		}
	}
	return false, 0, nil
}

// FormalReport summarizes the fourth oracle on one design: the formal
// engine's equivalence verdicts checked for agreement with simulation.
type FormalReport struct {
	Supported   bool   // the design is inside the bit-blastable subset
	Reason      string // why not, when it is not
	Mutants     int    // functional mutants formally checked
	Refuted     int    // SAT verdicts (each replayed in simulation)
	KEquivalent int    // UNSAT-to-depth-k verdicts (each probed by random simulation)
	Unbounded   int    // of KEquivalent: proved for all time by k-induction
}

// formalBudget bounds each SAT solve of the fourth oracle: generated
// designs occasionally wrap a multiplier or divider into the checksum
// cone, and those miters' UNSAT proofs can cost seconds each. The
// deterministic conflict cutoff keeps the sweep's formal pass bounded
// while still exercising the engine on the overwhelming majority of
// levelized designs. MinimizeCex routes every refutation through
// counterexample minimization, so each replay also exercises the
// shrinking path (formalAgreeMutant checks weight monotonicity).
var formalBudget = formal.Options{MaxConflicts: 500, MinimizeCex: true}

// DiffFormal is the fourth differential oracle: on bit-blastable designs
// the formal engine's verdicts must agree with simulation in both
// directions. The golden design must be provably equivalent to itself;
// for each functional mutant, a SAT verdict must come with a minimized
// counterexample that concrete simulation reproduces at the predicted
// cycle (and whose weight the minimizer did not increase), and an UNSAT
// verdict must survive random simulation probes under the same stimulus
// protocol (reset held deasserted after the preamble) — deeper probes
// when k-induction upgraded the proof to all-time, since that verdict
// claims every depth. A non-nil error is a genuine formal-vs-simulation
// disagreement — a bug in one of the engines.
func DiffFormal(d *Design, k, maxPerClass int) (FormalReport, error) {
	var rep FormalReport
	golden, err := diffCache.Compile(d.Source, d.Top, sim.BackendCompiled)
	if err != nil {
		return rep, nil // not elaborable: DiffBackends owns this case
	}
	res, err := formal.InductionEquivOpts(golden, golden, d.Clock, k, formalBudget)
	if err != nil {
		if errors.Is(err, formal.ErrUnsupported) || errors.Is(err, formal.ErrBudget) {
			rep.Reason = err.Error()
			return rep, nil
		}
		return rep, fmt.Errorf("golden blast: %w", err)
	}
	rep.Supported = true
	if !res.Equivalent {
		return rep, fmt.Errorf("golden design refuted against itself at depth %d", res.Depth)
	}
	for _, class := range faultgen.FunctionalClasses() {
		muts := faultgen.MutateSource(d.Source, class)
		if len(muts) > maxPerClass {
			muts = muts[:maxPerClass]
		}
		for _, mu := range muts {
			checked, refuted, unbounded, err := formalAgreeMutant(d, mu.Source, k)
			if err != nil {
				return rep, fmt.Errorf("%s mutant (%s): %w", class, mu.Descr, err)
			}
			if !checked {
				continue
			}
			rep.Mutants++
			switch {
			case refuted:
				rep.Refuted++
			default:
				rep.KEquivalent++
				if unbounded {
					rep.Unbounded++
				}
			}
		}
	}
	return rep, nil
}

// formalAgreeMutant checks one (golden, mutant) pair for agreement
// between the formal verdict and simulation. checked=false means the
// mutant fell outside the comparable set (does not parse/elaborate, or
// left the blastable subset). A SAT verdict must replay at the predicted
// cycle with a minimized trace no heavier or longer than the raw one; an
// UNSAT verdict must survive seeded random probes — of depth k when
// bounded, of depth 3k when the inductive step upgraded it to an
// all-time proof.
func formalAgreeMutant(d *Design, mutantSrc string, k int) (checked, refuted, unbounded bool, err error) {
	if _, errs := verilog.Parse(mutantSrc); len(errs) > 0 {
		return false, false, false, nil
	}
	golden, err := diffCache.Compile(d.Source, d.Top, sim.BackendCompiled)
	if err != nil {
		return false, false, false, nil
	}
	mutant, err := diffCache.Compile(mutantSrc, d.Top, sim.BackendCompiled)
	if err != nil {
		return false, false, false, nil // elaboration-failing mutants are the sim oracle's case
	}
	res, err := formal.InductionEquivOpts(golden, mutant, d.Clock, k, formalBudget)
	if err != nil {
		if errors.Is(err, formal.ErrUnsupported) || errors.Is(err, formal.ErrBudget) {
			return false, false, false, nil // non-blastable construct, or a miter out of budget
		}
		return false, false, false, err
	}
	if res.Cex != nil {
		if res.RawCex != nil {
			if len(res.Cex.Inputs) > len(res.RawCex.Inputs) {
				return true, true, false, fmt.Errorf("minimized cex longer than raw: %d vs %d cycles", len(res.Cex.Inputs), len(res.RawCex.Inputs))
			}
			if res.Cex.Weight() > res.RawCex.Weight() {
				return true, true, false, fmt.Errorf("minimized cex heavier than raw: %d vs %d set bits", res.Cex.Weight(), res.RawCex.Weight())
			}
		}
		div, cyc, err := formal.ReplayCex(d.Source, mutantSrc, d.Top, d.Clock, res.Cex, sim.BackendCompiled)
		if err != nil {
			return true, true, false, fmt.Errorf("cex replay: %w", err)
		}
		if !div {
			return true, true, false, fmt.Errorf("formal refuted at depth %d but simulation does not reproduce the divergence", res.Depth)
		}
		if cyc != res.Cex.Cycle {
			return true, true, false, fmt.Errorf("cex diverged at cycle %d, formal predicted %d", cyc, res.Cex.Cycle)
		}
		return true, true, false, nil
	}
	// UNSAT: no qualifying stimulus under the frozen-reset protocol may
	// distinguish the designs in simulation either. An unbounded proof
	// claims every depth, so probe it well past the base unrolling.
	probeDepth := k
	if res.Unbounded {
		probeDepth = 3 * k
	}
	for probe := int64(0); probe < 3; probe++ {
		div, cyc, err := tracesDivergeFrozen(d.Source, mutantSrc, d.Top, d.Clock, probeDepth, d.Seed+probe)
		if err != nil {
			return true, false, res.Unbounded, err
		}
		if div {
			return true, false, res.Unbounded, fmt.Errorf("formal proved %d-cycle equivalence (unbounded=%v) but random simulation diverged at cycle %d (probe %d)", k, res.Unbounded, cyc, probe)
		}
	}
	return true, false, res.Unbounded, nil
}

// inductionAgreesWithBMC is the fuzz oracle behind
// FuzzInductionAgreesWithBMC: run one (golden, mutant) pair through
// k-induction at depth k and cross-examine the verdict with the
// strongest independent checks available — an unbounded proof must
// survive *deeper* plain BMC (depth 3k+2) and deeper random simulation,
// a refutation must match plain BMC's verdict and depth exactly and
// replay in simulation, and a bounded UNSAT must agree with plain BMC.
// Pairs outside the blastable subset (or over budget on either path)
// are skipped, not failed.
func inductionAgreesWithBMC(d *Design, mutantSrc string, k int) error {
	if _, errs := verilog.Parse(mutantSrc); len(errs) > 0 {
		return nil
	}
	golden, err := diffCache.Compile(d.Source, d.Top, sim.BackendCompiled)
	if err != nil {
		return nil
	}
	mutant, err := diffCache.Compile(mutantSrc, d.Top, sim.BackendCompiled)
	if err != nil {
		return nil
	}
	ind, err := formal.InductionEquivOpts(golden, mutant, d.Clock, k, formalBudget)
	if err != nil {
		if errors.Is(err, formal.ErrUnsupported) || errors.Is(err, formal.ErrBudget) {
			return nil
		}
		return err
	}
	bmcDepth := k
	if ind.Unbounded {
		bmcDepth = 3*k + 2
	}
	bmc, err := formal.BMCEquivOpts(golden, mutant, d.Clock, bmcDepth, formalBudget)
	if err != nil {
		if errors.Is(err, formal.ErrUnsupported) || errors.Is(err, formal.ErrBudget) {
			return nil // the deeper unrolling ran out of budget: no verdict to compare
		}
		return err
	}
	if ind.Unbounded && !bmc.Equivalent {
		return fmt.Errorf("UNSOUND: induction proved unbounded equivalence but BMC refutes at depth %d", bmc.Depth)
	}
	if ind.Equivalent != bmc.Equivalent && !ind.Unbounded {
		return fmt.Errorf("induction (eq=%v depth=%d) disagrees with BMC (eq=%v depth=%d)",
			ind.Equivalent, ind.Depth, bmc.Equivalent, bmc.Depth)
	}
	if !ind.Equivalent {
		if bmc.Depth != ind.Depth {
			return fmt.Errorf("refutation depth mismatch: induction %d, BMC %d", ind.Depth, bmc.Depth)
		}
		div, cyc, err := formal.ReplayCex(d.Source, mutantSrc, d.Top, d.Clock, ind.Cex, sim.BackendCompiled)
		if err != nil {
			return fmt.Errorf("cex replay: %w", err)
		}
		if !div || cyc != ind.Cex.Cycle {
			return fmt.Errorf("induction cex: diverged=%v at cycle %d, predicted %d", div, cyc, ind.Cex.Cycle)
		}
		return nil
	}
	if ind.Unbounded {
		for probe := int64(0); probe < 3; probe++ {
			div, cyc, err := tracesDivergeFrozen(d.Source, mutantSrc, d.Top, d.Clock, 3*k, d.Seed+probe)
			if err != nil {
				return err
			}
			if div {
				return fmt.Errorf("UNSOUND: induction proved unbounded equivalence but simulation diverged at cycle %d (probe %d)", cyc, probe)
			}
		}
	}
	return nil
}

// tracesDivergeFrozen is tracesDiverge under the formal stimulus
// protocol: compiled backend, reset preamble, then random data inputs
// with the reset input held at its deasserted value.
func tracesDivergeFrozen(golden, mutant, top, clock string, cycles int, seed int64) (bool, int, error) {
	frozen := map[string]uint64{}
	if prog, err := diffCache.Compile(golden, top, sim.BackendCompiled); err == nil {
		if rstName, v := sim.FindResetDeassert(prog.Design()); rstName != "" {
			frozen[rstName] = v
		}
	}
	return tracesDivergeOn(golden, mutant, top, clock, cycles, seed, sim.BackendCompiled, frozen)
}

// copyIn filters a stimulus map down to inputs the (possibly mutated)
// design still has, so renamed/deleted ports do not error the harness.
func copyIn(in map[string]uint64, s *sim.Instance) map[string]uint64 {
	out := make(map[string]uint64, len(in))
	for k, v := range in {
		if s.Has(k) {
			out[k] = v
		}
	}
	return out
}

func errEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}
