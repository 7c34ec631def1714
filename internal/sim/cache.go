package sim

import (
	"crypto/sha256"

	"uvllm/internal/memo"
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
type Cache struct {
	m *memo.M[cacheKey, *Program]
}

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

func (c *Cache) key(src, top string, backend Backend) cacheKey {
	return cacheKey{sum: sha256.Sum256([]byte(src)), top: top, backend: backend}
}

// Compile returns the cached Program for (src, top, backend), compiling
// on first use. The returned Program is shared: treat it as immutable and
// create Instances for simulation.
func (c *Cache) Compile(src, top string, backend Backend) (*Program, error) {
	return c.m.Do(c.key(src, top, backend), func() (*Program, error) {
		return CompileSource(src, top, backend)
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
