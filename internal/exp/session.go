package exp

import (
	"fmt"
	"strings"
	"sync"

	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// Session binds one evaluation configuration — simulation backend, worker
// count and the shared compile cache / golden-trace memo — to its cached
// full-benchmark record sets. It replaces the old package-global Records
// cache and its mutable RecordsBackend variable: sessions for different
// backends coexist (keyed by SharedSession), nothing panics, and every
// derived artifact (figures, tables, ablations, the pass@k study) is a
// method so the configuration cannot drift mid-report.
type Session struct {
	Backend sim.Backend
	// Workers is the pool size for runs this session starts (0 = NumCPU).
	// Results are worker-count independent; set it before the first
	// Records call if you want it to apply to the cached run.
	Workers int
	Cache   *sim.Cache
	Memo    *uvm.TraceMemo

	mu     sync.Mutex
	byMode map[llm.GenMode]*sessionRecs
}

type sessionRecs struct {
	once sync.Once
	recs []*Record
}

// NewSession returns a session on the given backend using the
// process-wide compile cache and trace memo. Tests that assert counters
// can swap in fresh ones before the first run.
func NewSession(backend sim.Backend) *Session {
	return &Session{
		Backend: backend,
		Cache:   sim.SharedCache(),
		Memo:    uvm.SharedTraceMemo(),
		byMode:  map[llm.GenMode]*sessionRecs{},
	}
}

var (
	sessionsMu sync.Mutex
	sessions   = map[sim.Backend]*Session{}
)

// SharedSession returns the process-wide session for one backend — the
// per-backend keyed record cache behind the CLI and the benchmarks.
func SharedSession(backend sim.Backend) *Session {
	sessionsMu.Lock()
	defer sessionsMu.Unlock()
	s, ok := sessions[backend]
	if !ok {
		s = NewSession(backend)
		sessions[backend] = s
	}
	return s
}

func (s *Session) config() Config {
	return Config{Seed: 1, Backend: s.Backend, Workers: s.Workers, Cache: s.Cache, Memo: s.Memo}
}

func (s *Session) recordsFor(mode llm.GenMode) []*Record {
	s.mu.Lock()
	if s.byMode == nil {
		s.byMode = map[llm.GenMode]*sessionRecs{}
	}
	e, ok := s.byMode[mode]
	if !ok {
		e = &sessionRecs{}
		s.byMode[mode] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		cfg := s.config()
		cfg.Mode = mode
		if mode == llm.ModeComplete {
			cfg.SkipBaselines = true
		}
		e.recs = Run(cfg)
	})
	return e.recs
}

// Records returns the cached full-benchmark evaluation at the default
// configuration (seed 1, pair mode, all baselines), computing it on first
// use.
func (s *Session) Records() []*Record { return s.recordsFor(llm.ModePair) }

// CompleteModeRecords returns the cached full-benchmark run with the
// complete-code generation mode, UVLLM only (the Table III ablation).
func (s *Session) CompleteModeRecords() []*Record { return s.recordsFor(llm.ModeComplete) }

// SyntaxRecords filters the cached records to syntax-class instances.
func (s *Session) SyntaxRecords() []*Record {
	var out []*Record
	for _, r := range s.Records() {
		if r.Fault.Class.IsSyntax() {
			out = append(out, r)
		}
	}
	return out
}

// FunctionalRecords filters the cached records to functional instances.
func (s *Session) FunctionalRecords() []*Record {
	var out []*Record
	for _, r := range s.Records() {
		if !r.Fault.Class.IsSyntax() {
			out = append(out, r)
		}
	}
	return out
}

// Table3 computes the ablation table from the two cached runs.
func (s *Session) Table3() []Table3Row {
	return []Table3Row{
		table3Row("UVLLM_pair", s.Records()),
		table3Row("UVLLM_comp", s.CompleteModeRecords()),
	}
}

// AblationRollback re-runs a slice of the benchmark with the rollback
// mechanism disabled (UVLLM only) and reports the FR with and without it
// — the design-choice bench DESIGN.md calls out. instances caps the
// subset size (0 = full benchmark).
func (s *Session) AblationRollback(instances int) (withFR, withoutFR, withQuality, withoutQuality float64) {
	recs := s.Records()
	if instances > 0 && instances < len(recs) {
		recs = recs[:instances]
	}
	var faults []*faultgen.Fault
	fixed, failN := 0, 0
	for _, r := range recs {
		faults = append(faults, r.Fault)
		if r.UVLLMFix {
			fixed++
		}
		if !r.UVLLM.Success {
			withQuality += r.UVLLM.FinalScore
			failN++
		}
	}
	withFR = 100 * float64(fixed) / float64(len(recs))
	if failN > 0 {
		withQuality = 100 * withQuality / float64(failN)
	}

	cfg := s.config()
	cfg.SkipBaselines = true
	cfg.DisableRollback = true
	cfg.Instances = faults
	raw := Run(cfg)
	fixed, failN = 0, 0
	for _, r := range raw {
		if r.UVLLMFix {
			fixed++
		}
		if !r.UVLLM.Success {
			withoutQuality += r.UVLLM.FinalScore
			failN++
		}
	}
	withoutFR = 100 * float64(fixed) / float64(len(raw))
	if failN > 0 {
		withoutQuality = 100 * withoutQuality / float64(failN)
	}
	return withFR, withoutFR, withQuality, withoutQuality
}

// AblationLocalization re-runs a slice of the benchmark with SL mode
// engaged from the first iteration versus the default MS→SL escalation,
// reporting (escalated FR, immediate-SL FR, escalated mean Texec,
// immediate-SL mean Texec).
func (s *Session) AblationLocalization(instances int) (escFR, slFR, escT, slT float64) {
	recs := s.Records()
	if instances > 0 && instances < len(recs) {
		recs = recs[:instances]
	}
	var faults []*faultgen.Fault
	fixed := 0
	for _, r := range recs {
		faults = append(faults, r.Fault)
		if r.UVLLMFix {
			fixed++
		}
		escT += r.UVLLM.Times.Total()
	}
	escFR = 100 * float64(fixed) / float64(len(recs))
	escT /= float64(len(recs))

	cfg := s.config()
	cfg.SkipBaselines = true
	cfg.SLThreshold = 1
	cfg.Instances = faults
	raw := Run(cfg)
	fixed = 0
	for _, r := range raw {
		if r.UVLLMFix {
			fixed++
		}
		slT += r.UVLLM.Times.Total()
	}
	slFR = 100 * float64(fixed) / float64(len(raw))
	slT /= float64(len(raw))
	return escFR, slFR, escT, slT
}

// PassAtKStudy evaluates the first `instances` benchmark entries with
// `samples` seeds each (UVLLM only, expert-validated fixes).
func (s *Session) PassAtKStudy(instances, samples int) PassAtKResult {
	return passAtKStudy(s, instances, samples)
}

// StatsReport renders the session's amortization counters: compile-cache
// and golden-trace-memo hits, misses and occupancy.
func (s *Session) StatsReport() string {
	cs := s.Cache.Stats()
	ms := s.Memo.Stats()
	var b strings.Builder
	b.WriteString("Amortization stats\n")
	fmt.Fprintf(&b, "  compile cache:    %d hits / %d misses (%.1f%% hit rate), %d programs resident, %d evicted\n",
		cs.Hits, cs.Misses, cs.HitRatePct(), cs.Entries, cs.Evictions)
	fmt.Fprintf(&b, "  golden-trace memo: %d hits / %d misses (%.1f%% hit rate), %d traces resident, %d evicted\n",
		ms.Hits, ms.Misses, ms.HitRatePct(), ms.Entries, ms.Evictions)
	return b.String()
}
