package service

import "testing"

// TestServiceCacheHitByteIdentical is the acceptance check for the
// service-layer cache wiring: POSTing the same instance twice returns a
// byte-identical coloring the second time, served from the cache (the
// /healthz hit counter increments), with the entry written through to
// the CacheDir file store.
func TestServiceCacheHitByteIdentical(t *testing.T) {
	srv, ts := newTestService(t, Config{Workers: 1, CacheDir: t.TempDir()})

	req := Request{Tenant: "acme", Alg: "GLL", X: 10, Y: 10, Weights: gridWeights(10)}
	code1, res1 := postSolve(t, ts.URL, req)
	code2, res2 := postSolve(t, ts.URL, req)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status codes %d/%d, want 200/200", code1, code2)
	}
	if res1.Status != StatusDone || res2.Status != StatusDone {
		t.Fatalf("statuses %s/%s, want done/done", res1.Status, res2.Status)
	}
	if res1.MaxColor != res2.MaxColor {
		t.Fatalf("maxcolor drifted across the cache: %d vs %d", res1.MaxColor, res2.MaxColor)
	}
	if len(res1.Starts) != len(res2.Starts) {
		t.Fatalf("starts length drifted: %d vs %d", len(res1.Starts), len(res2.Starts))
	}
	for v := range res1.Starts {
		if res1.Starts[v] != res2.Starts[v] {
			t.Fatalf("vertex %d: cached start %d, solved start %d", v, res2.Starts[v], res1.Starts[v])
		}
	}

	h := getHealthz(t, ts.URL)
	if h.Cache == nil {
		t.Fatal("/healthz reports no cache despite the default-on config")
	}
	if h.Cache.Hits != 1 || h.Cache.Misses != 1 || h.Cache.Stores != 1 {
		t.Fatalf("cache accounting hits=%d misses=%d stores=%d, want 1/1/1",
			h.Cache.Hits, h.Cache.Misses, h.Cache.Stores)
	}
	if len(h.Cache.Tenants) != 1 || h.Cache.Tenants[0].Tenant != "acme" || h.Cache.Tenants[0].Hits != 1 {
		t.Fatalf("per-tenant cache accounting wrong: %+v", h.Cache.Tenants)
	}
	if h.Cache.Persisted != 1 {
		t.Fatalf("write-through missed the file store (persisted=%d)", h.Cache.Persisted)
	}
	if srv.Cache() == nil {
		t.Fatal("Server.Cache() is nil with caching enabled")
	}
}

// TestServiceCacheDisabled checks the off switch: CacheBytes < 0 runs
// every solve for real and /healthz omits the cache block.
func TestServiceCacheDisabled(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	req := Request{Alg: "GLL", X: 6, Y: 6, Weights: gridWeights(6)}
	if code, res := postSolve(t, ts.URL, req); code != 200 || res.Status != StatusDone {
		t.Fatalf("solve failed with cache disabled: %d %s", code, res.Status)
	}
	if h := getHealthz(t, ts.URL); h.Cache != nil {
		t.Fatalf("/healthz reports cache accounting with caching disabled: %+v", h.Cache)
	}
}
