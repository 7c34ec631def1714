package sim

import (
	"crypto/sha256"
	"sync"

	"uvllm/internal/lint"
	"uvllm/internal/memo"
	"uvllm/internal/verilog"
)

// Cache is a content-addressed compile cache: Programs keyed by
// (source hash, top module, backend). It exists because the verification
// pipeline is simulation-bound and compiles the same sources over and
// over — the golden module of every benchmark instance, every candidate
// across the repair loop's iterations, every baseline's re-checks. A hit
// returns the already-compiled immutable Program; callers create cheap
// Instances from it.
//
// The cache is safe for concurrent use and compilation is single-flight:
// two goroutines racing on the same key compile once and share the
// result. Compile errors (syntax, elaboration) are cached too — they are
// deterministic properties of the source, and negative hits are exactly
// what the repair loop's re-checks of a broken candidate need.
//
// A cache built by NewCache is a root: it keeps compiled Programs and no
// parses. Scope returns a job's view of a root, which also keeps each
// source's parse and lint report for as long as the job holds it.
type Cache struct {
	m     *memo.M[cacheKey, *Program]
	front *memo.M[string, *frontend] // nil on a root
}

// frontend is what a scope keeps per source: the AST and syntax errors
// of one verilog.Parse, and the lint report of that parse once asked for.
// Every consumer only reads the AST.
type frontend struct {
	f    *verilog.SourceFile
	errs []verilog.SyntaxError

	lintOnce sync.Once
	rep      *lint.Report
}

// scopeSources bounds a scope's parse table. One benchmark instance (the
// repair loop, four baselines and the expert validation) touches about
// 40 distinct sources, so a job's scope never evicts.
const scopeSources = 256

type cacheKey struct {
	sum     [sha256.Size]byte
	top     string
	backend Backend
}

// DefaultCacheLimit bounds a cache built with NewCache. Fuzzers and long
// evaluation sweeps feed endless distinct sources; beyond the limit the
// oldest half of the entries is dropped.
const DefaultCacheLimit = 4096

// NewCache returns an empty cache with the default entry limit.
func NewCache() *Cache { return NewCacheLimit(DefaultCacheLimit) }

// NewCacheLimit returns an empty cache holding at most limit entries
// (limit <= 0 means the default).
func NewCacheLimit(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	return &Cache{m: memo.New[cacheKey, *Program](limit)}
}

var sharedCache = NewCache()

// SharedCache returns the process-wide cache. The evaluation harness and
// the CLIs route every compile through it so the 331-instance benchmark
// compiles each of its 27 golden modules exactly once per backend.
func SharedCache() *Cache { return sharedCache }

// Scope returns a cache for one job: it shares c's compiled Programs and
// their counters, and memoizes each distinct source's parse (AST and
// syntax errors) and, on first request, its lint report, so the job's
// linter, synthesis gate and compiler parse a source once. A scope holds
// at most scopeSources parses, keyed by the source text, and they live
// as long as the scope does: drop it when the job ends. A scope is safe
// for concurrent use.
func (c *Cache) Scope() *Cache {
	return &Cache{m: c.m, front: memo.New[string, *frontend](scopeSources)}
}

// Parse returns src's AST and syntax errors. A scope parses each source
// once and returns the same AST to every caller, who must not modify it;
// a root or nil cache parses on every call.
func (c *Cache) Parse(src string) (*verilog.SourceFile, []verilog.SyntaxError) {
	if c == nil || c.front == nil {
		return verilog.Parse(src)
	}
	fe := c.parsed(src)
	return fe.f, fe.errs
}

// Lint returns src's lint report (lint.Lint). A scope lints each source
// once, on its memoized parse; the report is shared, so treat it as
// read-only. A root or nil cache lints afresh on every call.
func (c *Cache) Lint(src string) *lint.Report {
	if c == nil || c.front == nil {
		return lint.Lint(src)
	}
	fe := c.parsed(src)
	fe.lintOnce.Do(func() { fe.rep = lint.LintFile(fe.f, fe.errs) })
	return fe.rep
}

// parsed returns the scope's entry for src, parsing on first use.
func (c *Cache) parsed(src string) *frontend {
	fe, _ := c.front.Do(src, func() (*frontend, error) {
		f, errs := verilog.Parse(src)
		return &frontend{f: f, errs: errs}, nil
	})
	return fe
}

func (c *Cache) key(src, top string, backend Backend) cacheKey {
	return cacheKey{sum: sha256.Sum256([]byte(src)), top: top, backend: backend}
}

// Compile returns the cached Program for (src, top, backend), compiling
// on first use. The returned Program is shared: treat it as immutable and
// create Instances for simulation. A scope compiles a miss from its
// memoized parse.
func (c *Cache) Compile(src, top string, backend Backend) (*Program, error) {
	return c.m.Do(c.key(src, top, backend), func() (*Program, error) {
		f, errs := c.Parse(src)
		return compileParsed(f, errs, top, backend)
	})
}

// Instance is Compile followed by Program.NewInstance — the drop-in
// replacement for CompileAndNewBackend on a cache.
func (c *Cache) Instance(src, top string, backend Backend) (*Instance, error) {
	p, err := c.Compile(src, top, backend)
	if err != nil {
		return nil, err
	}
	return p.NewInstance()
}

// CacheStats is a point-in-time counter snapshot of the cache: hits,
// misses, evictions and resident entries.
type CacheStats = memo.Stats

// Stats returns a copy of the cache counters, taken under the cache's
// internal locks. This snapshot is the only supported way to read the
// counters concurrently with cache traffic: the returned value is
// consistent at the instant it was taken (hits+misses always equals the
// number of Compile calls that had reached the counter at that point) and
// immediately stale afterwards — callers such as the server's metrics
// endpoint must re-call Stats per scrape rather than retain references.
func (c *Cache) Stats() CacheStats { return c.m.Stats() }

// EntryStats reports whether (src, top, backend) is resident and how many
// hits it has served — the observability hook the evaluation tests use to
// assert each golden module was compiled exactly once.
func (c *Cache) EntryStats(src, top string, backend Backend) (hits int64, resident bool) {
	return c.m.EntryHits(c.key(src, top, backend))
}
