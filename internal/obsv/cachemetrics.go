package obsv

// CacheMetrics bundles the result-cache metric taxonomy: the counters
// and gauges internal/resultcache feeds as solves hit, miss, store, and
// evict. It mirrors the SolveMetrics/ServiceMetrics contract: carried by
// whoever owns the cache, and a nil *CacheMetrics disables all of them
// (every field method is nil-receiver-safe, so the cache records
// unconditionally).
type CacheMetrics struct {
	// Hits counts lookups answered from the cache (memory or the
	// persistent store) — resultcache_hits_total.
	Hits *Counter
	// Misses counts lookups that found no usable entry and fell through
	// to a real solve — resultcache_misses_total.
	Misses *Counter
	// Stores counts completed solves written into the cache —
	// resultcache_stores_total.
	Stores *Counter
	// Evictions counts entries dropped from the in-memory tier by the
	// byte-budget LRU policy (the persistent store, when configured,
	// retains them) — resultcache_evictions_total.
	Evictions *Counter
	// Corrupt counts persisted entries that failed decode, checksum, or
	// re-validation on read and were degraded to a miss (a re-solve) —
	// resultcache_corrupt_total. A nonzero value with a healthy disk
	// usually means a chaos schedule armed resultcache/get-corrupt.
	Corrupt *Counter
	// Entries is the current in-memory entry count —
	// resultcache_entries.
	Entries *Gauge
	// Bytes is the current in-memory footprint (coloring payloads plus
	// per-entry overhead) — resultcache_bytes.
	Bytes *Gauge
}

// NewCacheMetrics registers the result-cache taxonomy in r and returns
// the bundle. A nil registry yields a non-nil bundle of nil (disabled)
// metrics, which callers may still pass around safely.
func NewCacheMetrics(r *Registry) *CacheMetrics {
	return &CacheMetrics{
		Hits: r.Counter("resultcache_hits_total",
			"Solve lookups answered from the content-addressed result cache."),
		Misses: r.Counter("resultcache_misses_total",
			"Solve lookups that missed the result cache and ran a real solve."),
		Stores: r.Counter("resultcache_stores_total",
			"Completed solves written into the result cache."),
		Evictions: r.Counter("resultcache_evictions_total",
			"Entries dropped from the in-memory tier by the byte-budget LRU policy."),
		Corrupt: r.Counter("resultcache_corrupt_total",
			"Persisted cache entries that failed decode or validation and degraded to a re-solve."),
		Entries: r.Gauge("resultcache_entries",
			"Entries currently held in the in-memory cache tier."),
		Bytes: r.Gauge("resultcache_bytes",
			"Bytes currently held in the in-memory cache tier."),
	}
}
