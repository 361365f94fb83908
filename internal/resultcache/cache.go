package resultcache

import (
	"container/list"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
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
	// per-entry allowance); the LRU policy evicts past it. <= 0 picks
	// 64 MiB. The budget is split evenly across the shards.
	MaxBytes int64
	// Shards is the number of independently locked cache shards;
	// <= 0 picks 16. More shards means less lock contention between
	// concurrent service workers at the cost of slightly coarser LRU.
	Shards int
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
	// Commit overrides the VCS revision recorded in per-entry
	// provenance; empty reads it from the build info.
	Commit string
}

// Cache is the content-addressed solve-result cache: a sharded
// byte-budget LRU keyed by instance fingerprint, optionally in front of
// a persistent Store. It implements core.SolveCache, so attaching one
// to SolveOptions.Cache is all heuristics.Run needs to start memoizing.
//
// All methods are safe for concurrent use. Through Lookup and Store,
// colorings cross the cache boundary by deep copy in both directions: a
// caller mutating a returned coloring, or the coloring it stored, can
// never corrupt the cached bytes — which is what makes the
// byte-identical-hit guarantee hold. Shared is the one exception: a
// view for callers that only read colorings, which shares them instead.
type Cache struct {
	shards  []shard
	perMax  int64
	store   Store
	metrics *obsv.CacheMetrics
	flight  *obsv.FlightRecorder
	inj     core.Injector
	commit  string

	// entries/bytes describe the in-memory tier; stores, evictions, and
	// corrupt are the cache's own lifetime counters — kept here, not just
	// in the metrics bundle, so Snapshot is exact even when metrics are
	// disabled (a nil-registry bundle's counters are no-ops).
	entries   atomic.Int64
	bytes     atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64

	// tenants maps tenant → hit/miss counters for the per-tenant
	// accounting /healthz reports.
	tenantMu sync.Mutex
	tenants  map[string]*tenantCounts
}

type tenantCounts struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// shard is one independently locked slice of the key space.
type shard struct {
	mu    sync.Mutex
	byKey map[core.CacheKey]*list.Element
	lru   list.List // front = most recently used
	bytes int64
}

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
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Metrics == nil {
		// Keep the bundle non-nil so instrumentation stays unconditional;
		// a bundle of nil metrics makes every record a no-op.
		cfg.Metrics = obsv.NewCacheMetrics(nil)
	}
	commit := cfg.Commit
	if commit == "" {
		commit = buildCommit()
	}
	c := &Cache{
		shards:  make([]shard, cfg.Shards),
		perMax:  max(cfg.MaxBytes/int64(cfg.Shards), 1),
		store:   cfg.Store,
		metrics: cfg.Metrics,
		flight:  cfg.Flight,
		inj:     cfg.Injector,
		commit:  commit,
		tenants: map[string]*tenantCounts{},
	}
	for i := range c.shards {
		c.shards[i].byKey = map[core.CacheKey]*list.Element{}
	}
	return c
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

// shardFor maps a key to its shard by the key's leading bytes — the key
// is a SHA-256 digest, so any fixed slice of it is uniform.
func (c *Cache) shardFor(key core.CacheKey) *shard {
	idx := (int(key[0])<<8 | int(key[1])) % len(c.shards)
	return &c.shards[idx]
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
	sh := c.shardFor(key)

	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok {
		sh.lru.MoveToFront(el)
		starts := cloneIf(clone, el.Value.(*node).entry.Starts)
		sh.mu.Unlock()
		c.metrics.Hits.Add(1)
		c.tenantCounts(tenant).hits.Add(1)
		return core.Coloring{Start: starts}, key, true
	}
	sh.mu.Unlock()

	if c.store != nil {
		if e, ok := c.loadPersisted(key, g); ok {
			c.insert(sh, key, e)
			c.metrics.Hits.Add(1)
			c.tenantCounts(tenant).hits.Add(1)
			return core.Coloring{Start: cloneIf(clone, e.Starts)}, key, true
		}
	}

	c.metrics.Misses.Add(1)
	c.tenantCounts(tenant).misses.Add(1)
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
		c.corrupt.Add(1)
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
// the shard budget), and write through to the persistence tier when one
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
	sh := c.shardFor(key)
	c.insert(sh, key, e)
	c.stores.Add(1)
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

// insert places e into sh under key (replacing any previous entry) and
// evicts least-recently-used entries until the shard is back under its
// byte budget. An entry larger than the whole shard budget is not
// memory-cached at all — it would only evict everything else and then
// evict itself.
func (c *Cache) insert(sh *shard, key core.CacheKey, e Entry) {
	size := e.memBytes()
	if size > c.perMax {
		return
	}
	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok {
		old := el.Value.(*node)
		sh.bytes -= old.size
		c.bytes.Add(-old.size)
		sh.lru.Remove(el)
		delete(sh.byKey, key)
		c.entries.Add(-1)
	}
	sh.byKey[key] = sh.lru.PushFront(&node{key: key, entry: e, size: size})
	sh.bytes += size
	c.entries.Add(1)
	c.bytes.Add(size)
	var evicted []*node
	for sh.bytes > c.perMax {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		n := back.Value.(*node)
		sh.lru.Remove(back)
		delete(sh.byKey, n.key)
		sh.bytes -= n.size
		evicted = append(evicted, n)
	}
	sh.mu.Unlock()
	for _, n := range evicted {
		c.entries.Add(-1)
		c.bytes.Add(-n.size)
		c.evictions.Add(1)
		c.metrics.Evictions.Add(1)
		if c.flight.Exporting() {
			c.flight.RecordEvent(0, "cache.evict", n.key.String(), n.size)
		}
	}
	c.metrics.Entries.Set(c.entries.Load())
	c.metrics.Bytes.Set(c.bytes.Load())
}

// tenantCounts returns the per-tenant accounting cell, creating it on
// first use.
func (c *Cache) tenantCounts(tenant string) *tenantCounts {
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	tc := c.tenants[tenant]
	if tc == nil {
		tc = &tenantCounts{}
		c.tenants[tenant] = tc
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

// Snapshot returns the current cache accounting. The counters are read
// individually, not under one lock, so a snapshot taken mid-traffic is
// approximate — fine for /healthz, not a linearizable view.
func (c *Cache) Snapshot() Stats {
	st := Stats{
		Entries: c.entries.Load(),
		Bytes:   c.bytes.Load(),
	}
	// The tenant cells are the ground truth for hits/misses; the metrics
	// bundle may be disabled (nil registry), so nothing is read from it.
	c.tenantMu.Lock()
	for name, tc := range c.tenants {
		ts := TenantCacheStats{Tenant: name, Hits: tc.hits.Load(), Misses: tc.misses.Load()}
		st.Hits += ts.Hits
		st.Misses += ts.Misses
		st.Tenants = append(st.Tenants, ts)
	}
	c.tenantMu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	st.Stores = c.stores.Load()
	st.Evictions = c.evictions.Load()
	st.Corrupt = c.corrupt.Load()
	if c.store != nil {
		st.Persisted = c.store.Len()
	}
	return st
}
