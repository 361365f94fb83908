package resultcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// testGrid builds an n×n grid with small varied weights.
func testGrid(t *testing.T, n int) *grid.Grid2D {
	t.Helper()
	w := make([]int64, n*n)
	for i := range w {
		w[i] = int64(i%5 + 1)
	}
	g, err := grid.FromWeights2D(n, n, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// serialColoring returns the trivially valid coloring that stacks every
// vertex's interval after the previous one — disjoint everywhere, so it
// passes full validation on any instance.
func serialColoring(g core.Graph) core.Coloring {
	starts := make([]int64, g.Len())
	var at int64
	for v := 0; v < g.Len(); v++ {
		starts[v] = at
		at += g.Weight(v)
	}
	return core.Coloring{Start: starts}
}

func TestCacheHitIsByteIdenticalAndIsolated(t *testing.T) {
	c := New(Config{})
	g := testGrid(t, 8)
	col := serialColoring(g)

	if _, _, ok := c.Lookup("GLL", g, "acme"); ok {
		t.Fatal("hit on an empty cache")
	}
	_, key, _ := c.Lookup("GLL", g, "acme")
	c.Store(key, "GLL", "acme", g, col, 5*time.Millisecond)

	// Mutating what we stored must not reach the cached bytes.
	col.Start[0] = 999

	got, key2, ok := c.Lookup("GLL", g, "acme")
	if !ok {
		t.Fatal("miss after store")
	}
	if key2 != key {
		t.Fatalf("lookup key changed: %s vs %s", key2, key)
	}
	want := serialColoring(g)
	for v := range want.Start {
		if got.Start[v] != want.Start[v] {
			t.Fatalf("vertex %d: cached start %d, stored %d", v, got.Start[v], want.Start[v])
		}
	}
	// Mutating the returned coloring must not corrupt later hits.
	got.Start[0] = -1
	again, _, _ := c.Lookup("GLL", g, "acme")
	if again.Start[0] != want.Start[0] {
		t.Fatal("a caller's mutation of a returned coloring reached the cache")
	}

	st := c.Snapshot()
	if st.Hits != 2 || st.Misses != 2 || st.Stores != 1 {
		t.Fatalf("snapshot hits=%d misses=%d stores=%d, want 2/2/1", st.Hits, st.Misses, st.Stores)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" || st.Tenants[0].Hits != 2 {
		t.Fatalf("per-tenant accounting wrong: %+v", st.Tenants)
	}
}

func TestCacheByteBudgetEviction(t *testing.T) {
	g := testGrid(t, 8) // 64 starts = 512 payload bytes + overhead
	entrySize := (&Entry{Starts: make([]int64, g.Len()), Prov: Provenance{Solver: "GLL"}}).memBytes()

	// Budget for three entries: the fourth insert must evict the least
	// recently used.
	c := New(Config{MaxBytes: 3 * entrySize})
	algs := []string{"GLL", "GLF", "GZO", "SGK"}
	for _, alg := range algs {
		_, key, _ := c.Lookup(alg, g, "")
		c.Store(key, alg, "", g, serialColoring(g), time.Millisecond)
	}
	st := c.Snapshot()
	if st.Entries != 3 {
		t.Fatalf("entries = %d after eviction, want 3", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 3*entrySize {
		t.Fatalf("bytes = %d exceeds the %d budget", st.Bytes, 3*entrySize)
	}
	// GLL went in first and was never touched again: it is the victim.
	if _, _, ok := c.Lookup("GLL", g, ""); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.Lookup("SGK", g, ""); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

// TestCacheOversizedEntryNotCached: the one byte budget is the only
// size limit. An entry of exactly MaxBytes is memory-cached and hit,
// whether it arrives through Store or as a promotion from the store
// tier; one byte less of budget refuses it, and so does a budget
// smaller than any entry.
func TestCacheOversizedEntryNotCached(t *testing.T) {
	g := testGrid(t, 8)
	col := serialColoring(g)
	entrySize := (&Entry{Starts: col.Start, Prov: Provenance{Solver: "GLL"}}).memBytes()
	key := Fingerprint("GLL", g)

	for _, tc := range []struct {
		budget int64
		cached bool
	}{{64, false}, {entrySize - 1, false}, {entrySize, true}} {
		stored := New(Config{MaxBytes: tc.budget})
		stored.Store(key, "GLL", "", g, col, time.Millisecond)

		ms := NewMemStore()
		if err := ms.Put(key, Entry{Starts: col.Start, Prov: Provenance{Solver: "GLL"}}); err != nil {
			t.Fatal(err)
		}
		promoted := New(Config{MaxBytes: tc.budget, Store: ms})
		if _, _, ok := promoted.Lookup("GLL", g, ""); !ok {
			t.Fatalf("budget %d: store-tier entry not served", tc.budget)
		}
		// With the persisted copy gone, only the memory tier can hit.
		if err := ms.Delete(key); err != nil {
			t.Fatal(err)
		}

		want := int64(0)
		if tc.cached {
			want = 1
		}
		for name, c := range map[string]*Cache{"stored": stored, "promoted": promoted} {
			if st := c.Snapshot(); st.Entries != want || st.Bytes != want*entrySize || st.Evictions != 0 {
				t.Errorf("budget %d, %s: entries=%d bytes=%d evictions=%d, want %d entries of %d bytes and no evictions",
					tc.budget, name, st.Entries, st.Bytes, st.Evictions, want, entrySize)
			}
			if _, _, ok := c.Lookup("GLL", g, ""); ok != tc.cached {
				t.Errorf("budget %d, %s: memory hit=%v, want %v", tc.budget, name, ok, tc.cached)
			}
		}
	}
}

// TestSharedViewSharesStarts: the view returned by Shared stores and
// serves colorings without copying — the stored coloring, every hit
// through the view and a store-tier promotion are one array — while
// the Cache's own Lookup still returns a private copy, and hits through
// either face count once in the cache's accounting.
func TestSharedViewSharesStarts(t *testing.T) {
	ms := NewMemStore()
	c := New(Config{Store: ms})
	view := c.Shared()
	g := testGrid(t, 8)
	col := serialColoring(g)

	_, key, ok := view.Lookup("GLL", g, "acme")
	if ok {
		t.Fatal("hit on an empty cache")
	}
	view.Store(key, "GLL", "acme", g, col, time.Millisecond)
	hit, _, ok := view.Lookup("GLL", g, "acme")
	if !ok || &hit.Start[0] != &col.Start[0] {
		t.Fatalf("view hit (ok=%v) does not share the stored coloring's array", ok)
	}
	private, _, ok := c.Lookup("GLL", g, "acme")
	if !ok || &private.Start[0] == &col.Start[0] || fmt.Sprint(private.Start) != fmt.Sprint(col.Start) {
		t.Fatalf("Cache.Lookup (ok=%v) did not return an equal private copy", ok)
	}
	if st := c.Snapshot(); st.Hits != 2 || st.Misses != 1 || st.Stores != 1 || ms.Len() != 1 {
		t.Fatalf("accounting hits=%d misses=%d stores=%d persisted=%d, want 2/1/1/1",
			st.Hits, st.Misses, st.Stores, ms.Len())
	}

	// A cold cache over the same store promotes the entry on a view hit;
	// the promoted entry and the hit are one array.
	cold := New(Config{Store: ms}).Shared()
	first, _, ok := cold.Lookup("GLL", g, "acme")
	if !ok || fmt.Sprint(first.Start) != fmt.Sprint(col.Start) {
		t.Fatalf("promoted view hit (ok=%v) differs from the stored coloring", ok)
	}
	again, _, _ := cold.Lookup("GLL", g, "acme")
	if &again.Start[0] != &first.Start[0] {
		t.Fatal("the promoting hit is a copy of the promoted entry")
	}
}

func TestCacheStoreTierPromotion(t *testing.T) {
	ms := NewMemStore()
	g := testGrid(t, 6)

	warm := New(Config{Store: ms})
	_, key, _ := warm.Lookup("BDP", g, "a")
	warm.Store(key, "BDP", "a", g, serialColoring(g), time.Millisecond)
	if ms.Len() != 1 {
		t.Fatalf("write-through missed the store (len=%d)", ms.Len())
	}

	// A fresh cache over the same store: cold memory, warm persistence.
	cold := New(Config{Store: ms})
	got, _, ok := cold.Lookup("BDP", g, "a")
	if !ok {
		t.Fatal("store-tier entry not served")
	}
	want := serialColoring(g)
	for v := range want.Start {
		if got.Start[v] != want.Start[v] {
			t.Fatalf("vertex %d: promoted start %d, want %d", v, got.Start[v], want.Start[v])
		}
	}
	// The hit promoted the entry into memory.
	if st := cold.Snapshot(); st.Entries != 1 {
		t.Fatalf("entries = %d after promotion, want 1", st.Entries)
	}
}

func TestCacheCorruptPersistedEntryDegradesToMiss(t *testing.T) {
	ms := NewMemStore()
	g := testGrid(t, 6)
	c := New(Config{Store: ms})
	key := Fingerprint("GLL", g)

	// Plant an entry whose payload cannot color g: wrong vector length.
	if err := ms.Put(key, Entry{Starts: []int64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Lookup("GLL", g, ""); ok {
		t.Fatal("invalid persisted entry was served")
	}
	if ms.Len() != 0 {
		t.Fatal("vetted-bad persisted entry was not deleted")
	}

	// Right length, overlapping intervals: passes the length check, must
	// fail full validation.
	if err := ms.Put(key, Entry{Starts: make([]int64, g.Len())}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Lookup("GLL", g, ""); ok {
		t.Fatal("overlapping persisted coloring was served")
	}
	if st := c.Snapshot(); st.Corrupt != 2 {
		t.Fatalf("corrupt counter = %d, want 2", st.Corrupt)
	}
}

func TestCacheInjectedCorruption(t *testing.T) {
	ms := NewMemStore()
	g := testGrid(t, 6)

	armed := false
	inj := core.InjectorFunc(func(site core.FaultSite) bool {
		return armed && site == SiteGetCorrupt
	})
	c := New(Config{Store: ms, Injector: inj})
	_, key, _ := c.Lookup("GLL", g, "")
	c.Store(key, "GLL", "", g, serialColoring(g), time.Millisecond)

	// A fresh cache over the same store forces the store-tier read the
	// site guards; with the site armed the (perfectly valid) entry must
	// be treated as corrupt: a miss, never a wrong answer.
	armed = true
	cold := New(Config{Store: ms, Injector: inj})
	if _, _, ok := cold.Lookup("GLL", g, ""); ok {
		t.Fatal("injected corruption did not degrade the read to a miss")
	}
	if st := cold.Snapshot(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The injector also proved deletion: the store dropped the entry, so
	// a disarmed re-read re-solves rather than resurrecting it.
	if ms.Len() != 0 {
		t.Fatal("entry survived the corrupt-read deletion")
	}
}

// TestCacheFlightEvents: with a streaming recorder attached, an
// eviction streams an untraced cache.evict event (key hex as its
// detail, entry bytes as its arg) and a corrupt persisted read a
// cache.corrupt event (key hex and reason); neither enters the ring,
// and hits, misses and stores stream nothing.
func TestCacheFlightEvents(t *testing.T) {
	g := testGrid(t, 8)
	entrySize := (&Entry{Starts: make([]int64, g.Len()), Prov: Provenance{Solver: "GLL"}}).memBytes()
	rec := obsv.NewFlightRecorder(64, nil)
	var buf bytes.Buffer
	rec.Export(&buf)
	ms := NewMemStore()
	c := New(Config{MaxBytes: entrySize, Store: ms, Flight: rec})
	_, first, _ := c.Lookup("GLL", g, "")
	c.Store(first, "GLL", "", g, serialColoring(g), time.Millisecond)
	c.Lookup("GLL", g, "") // a hit
	_, second, _ := c.Lookup("GLF", g, "")
	c.Store(second, "GLF", "", g, serialColoring(g), time.Millisecond) // evicts GLL
	// Rot the persisted copy, so a cold cache's read finds it corrupt.
	if err := ms.Put(second, Entry{Starts: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	cold := New(Config{Store: ms, Flight: rec})
	cold.Lookup("GLF", g, "")

	var got []obsv.FlightRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r struct {
			Trace, Kind, Name, Detail string
			Arg                       int64
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if r.Trace != obsv.FlightID(0) || r.Kind != obsv.FlightKindEvent {
			t.Errorf("streamed %+v, want an untraced event", r)
		}
		got = append(got, obsv.FlightRecord{Name: r.Name, Detail: r.Detail, Arg: r.Arg})
	}
	if len(got) != 2 {
		t.Fatalf("streamed %+v, want one cache.evict and one cache.corrupt", got)
	}
	if e := got[0]; e.Name != "cache.evict" || e.Detail != first.String() || e.Arg != entrySize {
		t.Errorf("evict event %+v, want key %s and %d bytes", e, first, entrySize)
	}
	if e := got[1]; e.Name != "cache.corrupt" || !strings.HasPrefix(e.Detail, second.String()+": ") {
		t.Errorf("corrupt event %+v, want key %s plus a reason", e, second)
	}
	if n := len(rec.Snapshot(0, "", "", 0)); n != 0 {
		t.Errorf("ring holds %d records, want 0 (untraced events stream only)", n)
	}
}

// TestCacheConcurrentStorm hammers one cache from many goroutines doing
// lookups, stores, and byte-budget evictions at once; run under -race
// (the Makefile cache tier does) it is the data-race gate for the
// LRU and its counters.
func TestCacheConcurrentStorm(t *testing.T) {
	g := testGrid(t, 8)
	entrySize := (&Entry{Starts: make([]int64, g.Len())}).memBytes()
	c := New(Config{
		MaxBytes: 8 * entrySize, // small enough that eviction churns
		Store:    NewMemStore(),
		Metrics:  obsv.NewCacheMetrics(obsv.NewRegistry()),
	})
	col := serialColoring(g)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w%3)
			for i := 0; i < 200; i++ {
				alg := fmt.Sprintf("alg%d", (w+i)%16)
				got, key, ok := c.Lookup(alg, g, tenant)
				if ok {
					if len(got.Start) != g.Len() || got.Start[1] != col.Start[1] {
						t.Errorf("corrupted hit for %s", alg)
						return
					}
				} else {
					c.Store(key, alg, tenant, g, col, time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Snapshot()
	if st.Hits+st.Misses != workers*200 {
		t.Fatalf("accounting lost lookups: hits=%d misses=%d, want %d total",
			st.Hits, st.Misses, workers*200)
	}
	if st.Entries > 8 {
		t.Fatalf("entries = %d exceeds the budgeted 8", st.Entries)
	}
}
