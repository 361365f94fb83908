package resultcache

import (
	"container/list"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
)

// SiteGetCorrupt is the cache's fault-injection site: it fires once per
// persistent-store read that returned an entry, and when it fires the
// entry is discarded as corrupt — proving, under a chaos schedule, that
// a corrupted persisted entry degrades to a re-solve and never to a
// wrong answer.
const SiteGetCorrupt = core.FaultSite("resultcache/get-corrupt")

func init() {
	core.RegisterFaultSite(SiteGetCorrupt,
		"result-cache persistent-store read, once per returned entry: firing discards the entry as corrupt (degrades to re-solve)")
}

// Config parameterizes a Cache. The zero value is serviceable: a
// memory-only cache with the default byte budget and every
// observability sink disabled.
type Config struct {
	// MaxBytes bounds the in-memory tier (payload bytes plus a flat
	// per-entry allowance); the LRU policy evicts past it, and an entry
	// larger than the whole budget is not memory-cached. <= 0 picks
	// 64 MiB.
	MaxBytes int64
	// Store, when non-nil, is the persistence tier: every stored entry
	// is written through, and an in-memory miss falls back to it before
	// being counted a real miss.
	Store Store
	// Metrics, when non-nil, receives the resultcache_* families.
	Metrics *obsv.CacheMetrics
	// Flight, when non-nil, streams the untraced cache.evict and
	// cache.corrupt events (FlightRecorder.RecordEvent with trace 0);
	// hits are recorded under the request's trace by heuristics.Run.
	Flight *obsv.FlightRecorder
	// Injector, when non-nil, arms the resultcache/get-corrupt site.
	Injector core.Injector
}

// Cache is the content-addressed solve-result cache: one byte-budget
// LRU keyed by instance fingerprint, optionally in front of a
// persistent Store. It implements core.SolveCache, so attaching one to
// SolveOptions.Cache is all heuristics.Run needs to start memoizing.
//
// All methods are safe for concurrent use. Through Lookup and Store,
// colorings cross the cache boundary by deep copy in both directions: a
// caller mutating a returned coloring, or the coloring it stored, can
// never corrupt the cached bytes — which is what makes the
// byte-identical-hit guarantee hold. Shared is the one exception: a
// view for callers that only read colorings, which shares them instead.
type Cache struct {
	maxBytes int64
	store    Store
	metrics  *obsv.CacheMetrics
	flight   *obsv.FlightRecorder
	inj      core.Injector
	commit   string

	// mu guards the LRU and every counter below, so Snapshot is one
	// consistent read. The counters are the cache's own — kept here, not
	// just in the metrics bundle, so Snapshot is exact even when metrics
	// are disabled (a nil-registry bundle's counters are no-ops).
	mu    sync.Mutex
	byKey map[core.CacheKey]*list.Element
	lru   list.List // front = most recently used
	bytes int64
	// stores, evictions and corrupt count over the cache's lifetime.
	stores, evictions, corrupt int64
	// tenants maps tenant → the hit/miss split /healthz reports.
	tenants map[string]*tenantCounts
}

type tenantCounts struct{ hits, misses int64 }

// node is the LRU element payload.
type node struct {
	key   core.CacheKey
	entry Entry
	size  int64
}

var _ core.SolveCache = (*Cache)(nil)

// New builds a cache from cfg; see Config for the defaults.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.Metrics == nil {
		// Keep the bundle non-nil so instrumentation stays unconditional;
		// a bundle of nil metrics makes every record a no-op.
		cfg.Metrics = obsv.NewCacheMetrics(nil)
	}
	return &Cache{
		maxBytes: cfg.MaxBytes,
		store:    cfg.Store,
		metrics:  cfg.Metrics,
		flight:   cfg.Flight,
		inj:      cfg.Injector,
		commit:   buildCommit(),
		byKey:    map[core.CacheKey]*list.Element{},
		tenants:  map[string]*tenantCounts{},
	}
}

// buildCommit reads the VCS revision the binary was built from, so
// per-entry provenance pins cached results to code versions the same
// way ivcbench pins bench reports.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// Shared returns a core.SolveCache view of c that shares colorings
// instead of copying them: its Lookup returns the entry's own starts,
// and its Store keeps the caller's. Everything else — fingerprints,
// tiers, eviction, accounting, events — is c's own, so a hit through
// either is the same hit.
//
// The view's rule: a caller never writes a coloring it gets from the
// view or hands to it. In exchange, a hit's coloring, the solve that
// stored it and the cache entry are one array, held once. The solve
// daemon attaches the view, and meets the rule because it only encodes
// starts.
func (c *Cache) Shared() core.SolveCache { return sharedView{c} }

// sharedView is the copy-free face of a Cache; see Cache.Shared.
type sharedView struct{ c *Cache }

// Lookup implements core.SolveCache without copying the hit.
func (v sharedView) Lookup(alg string, g core.Graph, tenant string) (core.Coloring, core.CacheKey, bool) {
	return v.c.lookup(alg, g, tenant, false)
}

// Store implements core.SolveCache, keeping col's starts as the entry's.
func (v sharedView) Store(key core.CacheKey, alg, tenant string, g core.Graph, col core.Coloring, wall time.Duration) {
	v.c.put(key, alg, tenant, g, col, wall, false)
}

// Lookup implements core.SolveCache: fingerprint the instance, consult
// the in-memory tier, then the persistent store. Store-tier entries are
// checksum-verified by the Store and re-validated against the instance
// here before being served or promoted, so no corruption can surface as
// a wrong answer. The returned coloring is a fresh copy on every hit.
func (c *Cache) Lookup(alg string, g core.Graph, tenant string) (core.Coloring, core.CacheKey, bool) {
	return c.lookup(alg, g, tenant, true)
}

// lookup is Lookup, returning a copy of the hit's starts when clone is
// set and the entry's own otherwise.
func (c *Cache) lookup(alg string, g core.Graph, tenant string, clone bool) (core.Coloring, core.CacheKey, bool) {
	key := Fingerprint(alg, g)

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.tenant(tenant).hits++
		starts := el.Value.(*node).entry.Starts
		c.mu.Unlock()
		c.metrics.Hits.Add(1)
		// No one writes an entry's starts after insert, so the copy runs
		// outside the lock and never serializes other lookups.
		return core.Coloring{Start: cloneIf(clone, starts)}, key, true
	}
	c.mu.Unlock()

	if c.store != nil {
		if e, ok := c.loadPersisted(key, g); ok {
			c.insert(key, e, tenant, true)
			c.metrics.Hits.Add(1)
			return core.Coloring{Start: cloneIf(clone, e.Starts)}, key, true
		}
	}

	c.mu.Lock()
	c.tenant(tenant).misses++
	c.mu.Unlock()
	c.metrics.Misses.Add(1)
	return core.Coloring{}, key, false
}

// loadPersisted reads key from the persistence tier and vets the result:
// Store errors (decode, checksum), the injected-corruption site, and
// full re-validation against the instance all degrade to "no entry". A
// vetted-bad persisted entry is deleted so the store does not serve the
// same corruption forever.
func (c *Cache) loadPersisted(key core.CacheKey, g core.Graph) (Entry, bool) {
	e, ok, err := c.store.Get(key)
	if err == nil && !ok {
		return Entry{}, false
	}
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case c.inj != nil && c.inj.Inject(SiteGetCorrupt):
		// The chaos schedule says this read came back corrupted; drop
		// the payload exactly as a failed checksum would.
		reason = "injected corruption at " + string(SiteGetCorrupt)
	default:
		if verr := e.validate(g); verr != nil {
			reason = verr.Error()
		}
	}
	if reason != "" {
		c.mu.Lock()
		c.corrupt++
		c.mu.Unlock()
		c.metrics.Corrupt.Add(1)
		if c.flight.Exporting() {
			c.flight.RecordEvent(0, "cache.corrupt", key.String()+": "+reason, 0)
		}
		_ = c.store.Delete(key)
		return Entry{}, false
	}
	return e, true
}

// Store implements core.SolveCache: deep-copy the coloring, stamp
// provenance, insert into the in-memory tier (evicting LRU entries past
// the byte budget), and write through to the persistence tier when one
// is configured.
func (c *Cache) Store(key core.CacheKey, alg, tenant string, g core.Graph, col core.Coloring, wall time.Duration) {
	c.put(key, alg, tenant, g, col, wall, true)
}

// put is Store, keeping a copy of col's starts when clone is set and
// col's own otherwise.
func (c *Cache) put(key core.CacheKey, alg, tenant string, g core.Graph, col core.Coloring, wall time.Duration, clone bool) {
	e := Entry{
		Starts: cloneIf(clone, col.Start),
		Prov: Provenance{
			Solver:      alg,
			Commit:      c.commit,
			WallNanos:   wall.Nanoseconds(),
			MaxColor:    col.MaxColor(g),
			CreatedUnix: time.Now().Unix(),
		},
	}
	c.insert(key, e, tenant, false)
	c.metrics.Stores.Add(1)
	if c.store != nil {
		// Write-through is best-effort: a failed persist leaves the
		// memory tier serving and surfaces only as a corrupt/absent
		// entry on some later cold read.
		_ = c.store.Put(key, e)
	}
}

// cloneIf returns a copy of starts when clone is set, starts otherwise.
func cloneIf(clone bool, starts []int64) []int64 {
	if clone {
		return append([]int64(nil), starts...)
	}
	return starts
}

// insert files e under key (replacing any previous entry) and evicts
// least-recently-used entries until the cache is back under its byte
// budget. Under the same lock it counts the insert: as tenant's hit for
// an entry promoted from the store tier, as a store otherwise. An entry
// larger than the whole budget is not memory-cached at all — it would
// only evict everything else and then evict itself.
func (c *Cache) insert(key core.CacheKey, e Entry, tenant string, promoted bool) {
	size := e.memBytes()
	var evicted []*node
	c.mu.Lock()
	if promoted {
		c.tenant(tenant).hits++
	} else {
		c.stores++
	}
	if size <= c.maxBytes {
		if el, ok := c.byKey[key]; ok {
			c.bytes -= el.Value.(*node).size
			c.lru.Remove(el)
		}
		c.byKey[key] = c.lru.PushFront(&node{key: key, entry: e, size: size})
		c.bytes += size
		for c.bytes > c.maxBytes {
			n := c.lru.Remove(c.lru.Back()).(*node)
			delete(c.byKey, n.key)
			c.bytes -= n.size
			evicted = append(evicted, n)
		}
		c.evictions += int64(len(evicted))
		c.metrics.Entries.Set(int64(len(c.byKey)))
		c.metrics.Bytes.Set(c.bytes)
	}
	c.mu.Unlock()
	for _, n := range evicted {
		c.metrics.Evictions.Add(1)
		if c.flight.Exporting() {
			c.flight.RecordEvent(0, "cache.evict", n.key.String(), n.size)
		}
	}
}

// tenant returns tenant's accounting cell, creating it on first use.
// The caller holds c.mu.
func (c *Cache) tenant(name string) *tenantCounts {
	tc := c.tenants[name]
	if tc == nil {
		tc = &tenantCounts{}
		c.tenants[name] = tc
	}
	return tc
}

// TenantCacheStats is the per-tenant slice of the cache accounting, as
// reported in /healthz.
type TenantCacheStats struct {
	// Tenant is the tenant name (SolveOptions.TenantID form).
	Tenant string `json:"tenant"`
	// Hits counts this tenant's solves answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts this tenant's solves that ran for real.
	Misses int64 `json:"misses"`
}

// Stats is a point-in-time snapshot of the cache accounting: the global
// counters, the in-memory footprint, and the per-tenant hit/miss split.
type Stats struct {
	// Hits, Misses, Stores, Evictions, Corrupt mirror the
	// resultcache_* counter families.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`
	// Entries and Bytes describe the current in-memory tier.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Persisted is the persistence tier's entry count (0 with no store).
	Persisted int `json:"persisted,omitempty"`
	// Tenants is the per-tenant accounting, sorted by tenant name.
	Tenants []TenantCacheStats `json:"tenants,omitempty"`
}

// Snapshot returns the current cache accounting, read under the
// cache's lock as one consistent view.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	st := Stats{
		Stores:    c.stores,
		Evictions: c.evictions,
		Corrupt:   c.corrupt,
		Entries:   int64(len(c.byKey)),
		Bytes:     c.bytes,
	}
	// The tenant cells are the ground truth for hits/misses; the metrics
	// bundle may be disabled (nil registry), so nothing is read from it.
	for name, tc := range c.tenants {
		st.Hits += tc.hits
		st.Misses += tc.misses
		st.Tenants = append(st.Tenants, TenantCacheStats{Tenant: name, Hits: tc.hits, Misses: tc.misses})
	}
	c.mu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	if c.store != nil {
		st.Persisted = c.store.Len()
	}
	return st
}
