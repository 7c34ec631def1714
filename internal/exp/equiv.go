package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/formal"
	"uvllm/internal/metrics"
	"uvllm/internal/sim"
	"uvllm/internal/verilog"
)

// DefaultEquivDepth is the unrolling depth of the bounded-equivalence
// study — the formal engine's conventional depth (formal.DefaultBMCDepth).
const DefaultEquivDepth = formal.DefaultBMCDepth

// equivBudget bounds each study solve (deterministic cutoff; miters that
// exhaust it are reported as skipped, not guessed).
const equivBudget = 50000

// EquivRow is one benchmark module's equivalence study entry.
type EquivRow struct {
	Module        string
	Supported     bool
	Reason        string // why the module is outside the blastable subset
	AIGNodes      int    // graph size of the golden-vs-golden unrolling
	SelfEquiv     bool   // golden vs golden UNSAT through the study depth
	SelfUnbounded bool   // golden vs golden closed by the inductive step
	Mutants       int    // functional benchmark faults checked
	Detected      int    // SAT verdicts, every one replayed in simulation
	KEquiv        int    // UNSAT-to-depth verdicts, probed by random simulation
	Unbounded     int    // of KEquiv: proved for all time by k-induction
	Skipped       int    // mutants outside the subset or over budget
	Conflicts     int    // total solver conflicts across the module's checks
}

// EquivStudyResult is the full study: per-module rows plus the flat
// solver-work samples the -v statistics (percentiles, histogram) draw
// from.
type EquivStudyResult struct {
	Depth        int
	Rows         []EquivRow
	SolveStats   []formal.SolveStats // every SAT solve of the study
	RefuteDepths []float64           // divergence cycle of each detected mutant
}

// Mismatch counting: the study *gates* formal-vs-simulation agreement —
// any disagreement is returned as an error, so the caller (test or CLI)
// fails loudly rather than printing a wrong table.

// EquivStudy runs the equivalence study over the 27 benchmark modules on
// the session's cache: golden proved self-equivalent, then every
// functional benchmark fault of the module classified and cross-checked
// against simulation (SAT verdicts replayed, UNSAT verdicts probed with
// seeded random stimulus). Checks run through k-induction
// (formal.InductionEquivOpts), so an UNSAT verdict is either bounded
// ("equivalent through the study depth") or unbounded ("equivalent for
// all time" — the inductive step closed); unbounded verdicts are probed
// with deeper random runs, since they make the stronger claim.
// maxPerModule caps the mutants per module (0 = 3); depth <= 0 uses
// DefaultEquivDepth.
func (s *Session) EquivStudy(depth, maxPerModule int) (*EquivStudyResult, error) {
	if depth <= 0 {
		depth = DefaultEquivDepth
	}
	if maxPerModule <= 0 {
		maxPerModule = 3
	}
	study := &EquivStudyResult{Depth: depth}
	byModule := faultgen.BenchmarkByModule()
	for _, m := range dataset.All() {
		row := EquivRow{Module: m.Name}
		golden, err := s.Cache.Compile(m.Source, m.Top, sim.BackendCompiled)
		if err != nil {
			return study, fmt.Errorf("exp: equiv: %s: golden does not compile: %w", m.Name, err)
		}
		opts := formal.Options{Clock: m.Clock, MaxConflicts: equivBudget}
		res, err := formal.InductionEquivOpts(golden, golden, m.Clock, depth, opts)
		if err != nil {
			if errors.Is(err, formal.ErrUnsupported) || errors.Is(err, formal.ErrBudget) {
				row.Reason = trimReason(err)
				study.Rows = append(study.Rows, row)
				continue
			}
			return study, fmt.Errorf("exp: equiv: %s: %w", m.Name, err)
		}
		row.Supported = true
		row.SelfEquiv = res.Equivalent
		row.SelfUnbounded = res.Unbounded
		row.AIGNodes = res.Stats.AIGNodes
		row.Conflicts += res.Stats.Conflicts()
		study.SolveStats = append(study.SolveStats, res.Stats.Solves...)
		if !row.SelfEquiv {
			return study, fmt.Errorf("exp: equiv: %s refuted against itself at depth %d", m.Name, res.Depth)
		}

		var functional []*faultgen.Fault
		for _, f := range byModule[m.Name] {
			if !f.Class.IsSyntax() {
				functional = append(functional, f)
			}
		}
		if len(functional) > maxPerModule {
			functional = functional[:maxPerModule]
		}
		for _, f := range functional {
			mutant, err := s.Cache.Compile(f.Source, m.Top, sim.BackendCompiled)
			if err != nil {
				row.Skipped++
				continue
			}
			mres, err := formal.InductionEquivOpts(golden, mutant, m.Clock, depth, opts)
			if err != nil {
				if errors.Is(err, formal.ErrUnsupported) || errors.Is(err, formal.ErrBudget) {
					row.Skipped++
					continue
				}
				return study, fmt.Errorf("exp: equiv: %s: %w", f.ID, err)
			}
			row.Mutants++
			row.Conflicts += mres.Stats.Conflicts()
			study.SolveStats = append(study.SolveStats, mres.Stats.Solves...)
			if mres.Cex != nil {
				div, cyc, err := formal.ReplayCex(m.Source, f.Source, m.Top, m.Clock, mres.Cex, s.Backend)
				if err != nil {
					return study, fmt.Errorf("exp: equiv: %s: replay: %w", f.ID, err)
				}
				if !div {
					return study, fmt.Errorf("exp: equiv: %s: formal refuted at depth %d but simulation does not diverge", f.ID, mres.Depth)
				}
				if cyc != mres.Cex.Cycle {
					return study, fmt.Errorf("exp: equiv: %s: replay diverged at %d, formal predicted %d", f.ID, cyc, mres.Cex.Cycle)
				}
				row.Detected++
				study.RefuteDepths = append(study.RefuteDepths, float64(mres.Cex.Cycle))
			} else {
				// Unbounded proofs claim every depth, so probe them beyond
				// the study's unrolling; bounded proofs are probed at the
				// depth they actually cover.
				probeDepth := depth
				if mres.Unbounded {
					probeDepth = 2*depth + 5
					row.Unbounded++
				}
				if err := probeEquivalence(golden.Design(), m, f, probeDepth, s.Backend); err != nil {
					return study, fmt.Errorf("exp: equiv: %s: %w", f.ID, err)
				}
				row.KEquiv++
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// probeEquivalence cross-checks an UNSAT verdict: seeded random
// simulation of the same depth under the formal stimulus protocol must
// not distinguish the designs either. d is the already-compiled golden
// design (port list and reset convention).
func probeEquivalence(d *sim.Design, m *dataset.Module, f *faultgen.Fault, depth int, backend sim.Backend) error {
	for probe := int64(1); probe <= 3; probe++ {
		cex := randomProtocolStimulus(d, m.Clock, depth, probe)
		div, cyc, err := formal.ReplayCex(m.Source, f.Source, m.Top, m.Clock, cex, backend)
		if err != nil {
			return err
		}
		if div {
			return fmt.Errorf("formal proved %d-cycle equivalence but probe %d diverged at cycle %d", depth, probe, cyc)
		}
	}
	return nil
}

// randomProtocolStimulus builds a random stimulus under the frozen-reset
// protocol, packaged as a Counterexample so ReplayCex can drive it.
func randomProtocolStimulus(d *sim.Design, clock string, cycles int, seed int64) *formal.Counterexample {
	rstName, rstVal := sim.FindResetDeassert(d)
	rng := rand.New(rand.NewSource(seed))
	cex := &formal.Counterexample{}
	for c := 0; c < cycles; c++ {
		in := map[string]uint64{}
		for _, p := range d.Inputs() {
			switch p.Name {
			case clock:
			case rstName:
				in[p.Name] = rstVal
			default:
				in[p.Name] = rng.Uint64() & verilog.Mask(p.Width)
			}
		}
		cex.Inputs = append(cex.Inputs, in)
	}
	return cex
}

func trimReason(err error) string {
	s := err.Error()
	if i := strings.LastIndex(s, ": "); i >= 0 {
		return s[i+2:]
	}
	return s
}

// FormatEquiv renders the study as the EXPERIMENTS.md table, including
// the induction-outcome column: "unbnd" counts the UNSAT mutants whose
// proof the inductive step upgraded from depth-bounded to all-time.
func FormatEquiv(st *EquivStudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Equivalence study (formal engine, k-induction), depth %d\n", st.Depth)
	fmt.Fprintf(&b, "%-18s %9s %8s %8s %7s %7s %7s %7s %9s\n",
		"module", "supported", "aig", "mutants", "SAT", "UNSAT", "unbnd", "skip", "conflicts")
	supported, selfOK, selfUnb, mutants, detected, keq, unb := 0, 0, 0, 0, 0, 0, 0
	for _, r := range st.Rows {
		if !r.Supported {
			fmt.Fprintf(&b, "%-18s %9s %s\n", r.Module, "no", r.Reason)
			continue
		}
		supported++
		if r.SelfEquiv {
			selfOK++
		}
		if r.SelfUnbounded {
			selfUnb++
		}
		mutants += r.Mutants
		detected += r.Detected
		keq += r.KEquiv
		unb += r.Unbounded
		fmt.Fprintf(&b, "%-18s %9s %8d %8d %7d %7d %7d %7d %9d\n",
			r.Module, "yes", r.AIGNodes, r.Mutants, r.Detected, r.KEquiv, r.Unbounded, r.Skipped, r.Conflicts)
	}
	fmt.Fprintf(&b, "%d/%d modules supported; golden self-equivalent %d/%d (%d unbounded); %d mutants: %d refuted (all replayed), %d proved %d-cycle equivalent (%d for all time by induction)\n",
		supported, len(st.Rows), selfOK, supported, selfUnb, mutants, detected, keq, st.Depth, unb)
	return b.String()
}

// FormatEquivStats renders the solver-work statistics of a study run:
// conflict percentiles and a histogram, plus refutation-depth spread —
// the cmd/experiments -v view built on metrics.Percentile and
// metrics.Histogram.
func FormatEquivStats(st *EquivStudyResult) string {
	var b strings.Builder
	var conflicts []float64
	maxC := 0.0
	for _, sv := range st.SolveStats {
		c := float64(sv.Conflicts)
		conflicts = append(conflicts, c)
		if c > maxC {
			maxC = c
		}
	}
	fmt.Fprintf(&b, "Formal solver statistics (%d SAT solves)\n", len(conflicts))
	fmt.Fprintf(&b, "  conflicts: p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
		metrics.Percentile(conflicts, 50), metrics.Percentile(conflicts, 90),
		metrics.Percentile(conflicts, 99), maxC)
	h := metrics.NewHistogram(0, maxC+1, 8)
	for _, c := range conflicts {
		h.Add(c)
	}
	b.WriteString(h.Format(32))
	if len(st.RefuteDepths) > 0 {
		fmt.Fprintf(&b, "  refutation cycle: p50=%.0f p90=%.0f max=%.0f over %d refuted mutants\n",
			metrics.Percentile(st.RefuteDepths, 50), metrics.Percentile(st.RefuteDepths, 90),
			metrics.Percentile(st.RefuteDepths, 100), len(st.RefuteDepths))
	}
	return b.String()
}
