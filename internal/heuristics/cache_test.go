package heuristics

import (
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/resultcache"
)

// cacheTestGrid builds a small varied-weight 2D instance.
func cacheTestGrid(t *testing.T) *grid.Grid2D {
	t.Helper()
	w := make([]int64, 12*12)
	for i := range w {
		w[i] = int64(i%7 + 1)
	}
	g, err := grid.FromWeights2D(12, 12, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunCacheHitSkipsSolver checks the memoization contract end to
// end at the dispatch layer: the second Run of an identical instance
// must return a byte-identical coloring without running the solver
// (the solver metrics count exactly one real solve).
func TestRunCacheHitSkipsSolver(t *testing.T) {
	g := cacheTestGrid(t)
	reg := obsv.NewRegistry()
	opts := &core.SolveOptions{
		Metrics: obsv.NewSolveMetrics(reg),
		Cache:   resultcache.New(resultcache.Config{}),
	}

	first, err := Run("GLL", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Metrics.Solves.Value(); got != 1 {
		t.Fatalf("solves after first run = %d, want 1", got)
	}

	second, err := Run("GLL", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Metrics.Solves.Value(); got != 1 {
		t.Fatalf("solves after cached run = %d, want 1 (the hit must skip the solver)", got)
	}
	if len(second.Start) != len(first.Start) {
		t.Fatalf("cached coloring has %d starts, want %d", len(second.Start), len(first.Start))
	}
	for v := range first.Start {
		if second.Start[v] != first.Start[v] {
			t.Fatalf("vertex %d: cached start %d, solved start %d", v, second.Start[v], first.Start[v])
		}
	}

	// A different algorithm on the same instance must not hit GLL's entry.
	if _, err := Run("GLF", g, opts); err != nil {
		t.Fatal(err)
	}
	if got := opts.Metrics.Solves.Value(); got != 2 {
		t.Fatalf("solves after GLF = %d, want 2 (cross-algorithm hit would be unsound)", got)
	}

	// Mutating the instance invalidates the fingerprint: no stale hit.
	g.Set(0, 0, g.At(0, 0)+3)
	if _, err := Run("GLL", g, opts); err != nil {
		t.Fatal(err)
	}
	if got := opts.Metrics.Solves.Value(); got != 3 {
		t.Fatalf("solves after mutation = %d, want 3 (stale hit after weight change)", got)
	}
}

// TestNilCacheLookupNoAllocs pins the disabled-cache path at zero
// allocations: with no cache configured, the only cost Run pays for the
// cache feature is one nil compare. This is the guard the Makefile's
// cache tier runs; a regression here taxes every non-caching solve in
// the hot path.
func TestNilCacheLookupNoAllocs(t *testing.T) {
	g := cacheTestGrid(t)
	opts := &core.SolveOptions{}
	if n := testing.AllocsPerRun(200, func() {
		_, _, hit := lookupCached(opts.ResultCache(), "GLL", g, opts)
		if hit {
			t.Fatal("nil cache reported a hit")
		}
	}); n != 0 {
		t.Fatalf("nil-cache lookup allocates %v/op, want 0", n)
	}
}
