package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/parallel"
	"stencilivc/internal/resultcache"
	"stencilivc/internal/service"
)

// TestEveryRegisteredSiteIsReachable drives each chaos-instrumented
// subsystem — the tile-parallel solver, the solve service, and the
// result cache's persistence path — under one shared injector armed
// with never-firing rules, then asserts every site in the core registry
// was actually consulted. The registry (and
// the table in this package's doc and DESIGN.md §11) can therefore
// never drift into documenting dead injection points.
func TestEveryRegisteredSiteIsReachable(t *testing.T) {
	sites := core.FaultSites()
	if len(sites) < 7 {
		t.Fatalf("registry lists %d sites, expected at least the 7 documented ones", len(sites))
	}
	inj := chaos.New(1)
	for _, rs := range sites {
		if rs.Doc == "" {
			t.Errorf("site %s registered without documentation", rs.Site)
		}
		if !core.KnownFaultSite(rs.Site) {
			t.Errorf("KnownFaultSite(%s) = false for a registered site", rs.Site)
		}
		// A probability-zero rule never fires but counts every visit.
		inj = inj.WithProb(rs.Site, 0)
	}

	g := grid.MustGrid2D(16, 16)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%5)+1)
	}

	// pgreedy/*: a tile-parallel solve visits the worker sites per tile
	// and the halo site per placement.
	if _, err := parallel.Greedy(g, parallel.Config{TileSize: 4, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 2, Injector: inj}); err != nil {
		t.Fatalf("parallel drive: %v", err)
	}

	// resultcache/get-corrupt: store an entry through one cache, then
	// look it up through a second cache sharing the persistence tier —
	// the store-hit path is where the corruption site sits.
	ms := resultcache.NewMemStore()
	warm := resultcache.New(resultcache.Config{Store: ms})
	col, err := core.GreedyColorOpts(g, g.LineOrder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, key, _ := warm.Lookup("GLL", g, "")
	warm.Store(key, "GLL", "", g, col, time.Millisecond)
	cold := resultcache.New(resultcache.Config{Store: ms, Injector: inj})
	if _, _, ok := cold.Lookup("GLL", g, ""); !ok {
		t.Fatal("persisted entry did not round-trip through the second cache")
	}

	// service/*: one solve request passes admission (enqueue-drop), then
	// the worker that takes it consults batch-stall and worker-panic.
	srv, err := service.New(service.Config{Workers: 1, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	weights := make([]int64, 16)
	for i := range weights {
		weights[i] = int64(i%3) + 1
	}
	body, err := json.Marshal(service.Request{Alg: "GLL", X: 4, Y: 4, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service drive: status %d, want 200", resp.StatusCode)
	}

	for _, rs := range sites {
		if inj.Visits(rs.Site) == 0 {
			t.Errorf("registered site %s was never consulted by any drive", rs.Site)
		}
	}
}
