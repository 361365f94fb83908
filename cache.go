package stencilivc

import (
	"stencilivc/internal/core"
	"stencilivc/internal/resultcache"
)

// Result-cache types (internal/resultcache), re-exported for users of
// the public API. Attach a ResultCache to SolveOptions.Cache and Solve
// answers repeated identical instances from the cache instead of
// re-running the solver; leaving the field nil costs one pointer
// compare.
type (
	// ResultCache is the content-addressed solve-result cache: one
	// byte-budget LRU keyed by instance fingerprint, optionally in front
	// of a persistent CacheStore. Any answer up to the budget is held in
	// memory.
	ResultCache = resultcache.Cache
	// ResultCacheConfig parameterizes NewResultCache; the zero value is
	// a memory-only cache with a 64 MiB budget.
	ResultCacheConfig = resultcache.Config
	// CacheStore is the cache's pluggable persistence tier
	// (Get/Put/Delete/Len). NewFileCacheStore persists to disk;
	// NewMemCacheStore is the in-memory reference implementation.
	CacheStore = resultcache.Store
	// CacheEntry is one persisted cache record: the coloring payload
	// plus its provenance.
	CacheEntry = resultcache.Entry
	// CacheProvenance records where a cached coloring came from: solver,
	// VCS commit, original wall time, maxcolor, creation time.
	CacheProvenance = resultcache.Provenance
	// CacheStats is a point-in-time snapshot of a ResultCache's
	// accounting (hits, misses, evictions, per-tenant splits).
	CacheStats = resultcache.Stats
	// CacheKey is a cache entry's content address: the SHA-256
	// fingerprint of the algorithm descriptor plus the canonical
	// instance encoding.
	CacheKey = core.CacheKey
)

// NewResultCache builds a result cache; see ResultCacheConfig for the
// defaults. Put it in SolveOptions.Cache to memoize solves.
func NewResultCache(cfg ResultCacheConfig) *ResultCache { return resultcache.New(cfg) }

// NewFileCacheStore opens (creating if needed) a file-backed cache
// store rooted at dir: one checksummed file per entry, written with
// atomic write-temp-rename, so cached colorings survive restarts.
func NewFileCacheStore(dir string) (CacheStore, error) { return resultcache.OpenFileStore(dir) }

// CacheSweepPolicy bounds a file-backed cache store's on-disk growth at
// open; see resultcache.SweepPolicy for the eviction and expiry rules.
type CacheSweepPolicy = resultcache.SweepPolicy

// NewFileCacheStoreSwept opens a file-backed cache store like
// NewFileCacheStore and applies pol: entries past their TTL (and
// corrupt payloads found along the way) are reclaimed first, then the
// oldest entries beyond MaxEntries.
func NewFileCacheStoreSwept(dir string, pol CacheSweepPolicy) (CacheStore, error) {
	return resultcache.OpenFileStoreSwept(dir, pol)
}

// NewMemCacheStore returns the in-memory reference CacheStore — the
// persistence-tier semantics without a disk.
func NewMemCacheStore() CacheStore { return resultcache.NewMemStore() }

// CacheFingerprint computes the content address a ResultCache files an
// instance under: SHA-256 over the algorithm descriptor and the
// canonical, domain-separated instance encoding. Exposed so operators
// can correlate cache.* event keys with specific instances.
func CacheFingerprint(alg Algorithm, g Graph) CacheKey {
	return resultcache.Fingerprint(string(alg), g)
}
