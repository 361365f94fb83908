package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// testGrid2D returns a 96x96 grid (several 32-cell tiles per axis at
// TileSize 32) with varied weights.
func testGrid2D(t *testing.T) *grid.Grid2D {
	t.Helper()
	g := grid.MustGrid2D(96, 96)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%7)+1)
	}
	return g
}

// fireOnce returns an injector firing site's fault exactly once, on the
// nth visit of that site (1-based), and a counter of fires.
func fireOnce(site core.FaultSite, nth int64, act func()) (core.Injector, *atomic.Int64) {
	var visits, fires atomic.Int64
	return core.InjectorFunc(func(s core.FaultSite) bool {
		if s != site {
			return false
		}
		if visits.Add(1) != nth {
			return false
		}
		fires.Add(1)
		if act != nil {
			act()
		}
		return true
	}), &fires
}

// newMetrics returns a fresh registry-backed metrics bundle for
// asserting on the degraded-solve counters.
func newMetrics() *obsv.SolveMetrics {
	return obsv.NewSolveMetrics(obsv.NewRegistry())
}

// TestWorkerPanicFallsBackSequential: an induced worker panic is
// contained, the solve falls back to the sequential bedrock, the result
// equals plain sequential greedy, and the counters record the event.
func TestWorkerPanicFallsBackSequential(t *testing.T) {
	g := testGrid2D(t)
	for _, par := range []int{1, 4} {
		inj, fires := fireOnce(SiteWorkerPanic, 2, func() {
			panic(core.InjectedPanic{Site: SiteWorkerPanic})
		})
		m := newMetrics()
		opts := &core.SolveOptions{Parallelism: par, Injector: inj, Metrics: m}
		c, err := Greedy(g, Config{TileSize: 32}, opts)
		if err != nil {
			t.Fatalf("par=%d: fallback did not absorb the panic: %v", par, err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("par=%d: degraded result invalid: %v", par, err)
		}
		if fires.Load() != 1 {
			t.Fatalf("par=%d: panic fired %d times, want 1", par, fires.Load())
		}
		if got := m.PanicsRecovered.Value(); got == 0 {
			t.Errorf("par=%d: solver_panics_recovered_total = 0, want > 0", par)
		}
		if got := m.Fallbacks.Value(); got == 0 {
			t.Errorf("par=%d: solver_fallbacks_total = 0, want > 0", par)
		}
		// The fallback is exactly the sequential line-order greedy.
		want, err := core.GreedyColorOpts(g, g.LineOrder(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range c.Start {
			if c.Start[v] != want.Start[v] {
				t.Fatalf("par=%d: fallback diverges from GLL at vertex %d: %d vs %d",
					par, v, c.Start[v], want.Start[v])
			}
		}
	}
}

// TestWorkerPanicNonInjected: a genuine (non-injected) panic in a
// worker is also contained and degraded, not propagated.
func TestWorkerPanicNonInjected(t *testing.T) {
	g := testGrid2D(t)
	inj, _ := fireOnce(SiteWorkerPanic, 1, func() { panic("worker bug") })
	c, err := Greedy(g, Config{TileSize: 32}, &core.SolveOptions{Parallelism: 4, Injector: inj})
	if err != nil {
		t.Fatalf("genuine panic not absorbed: %v", err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatalf("degraded result invalid: %v", err)
	}
}

// TestHaloMisreadRepaired: forced halo misreads plant cross-tile
// conflicts the fixpoint must fully repair.
func TestHaloMisreadRepaired(t *testing.T) {
	g := testGrid2D(t)
	inj := core.InjectorFunc(func(s core.FaultSite) bool {
		return s == SiteHaloRead // every speculative placement misreads
	})
	m := newMetrics()
	c, err := Greedy(g, Config{TileSize: 32}, &core.SolveOptions{Parallelism: 4, Injector: inj, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatalf("misreads survived the fixpoint: %v", err)
	}
	if m.Conflicts.Value() == 0 {
		t.Error("universal halo misreads produced zero detected conflicts")
	}
}

// TestCancellationPropagatesThroughChaos: a canceled context beats the
// fallback — Greedy reports the cancellation, never a partial coloring.
func TestCancellationPropagatesThroughChaos(t *testing.T) {
	g := testGrid2D(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inj, _ := fireOnce(SiteWorkerPanic, 1, func() { panic(core.InjectedPanic{Site: SiteWorkerPanic}) })
	_, err := Greedy(g, Config{TileSize: 32}, &core.SolveOptions{
		Ctx: ctx, Parallelism: 4, Injector: inj,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolveErrorSiteThreadsThrough: the site of an injected panic
// survives recovery into the typed error (observed via speculative()
// before Greedy's fallback hides it).
func TestSolveErrorSiteThreadsThrough(t *testing.T) {
	g := testGrid2D(t)
	inj, _ := fireOnce(SiteWorkerPanic, 1, func() { panic(core.InjectedPanic{Site: SiteWorkerPanic}) })
	_, err := speculative(g, Config{TileSize: 32}, &core.SolveOptions{Parallelism: 2, Injector: inj})
	var se *core.SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *core.SolveError", err)
	}
	if !se.Panicked || se.Site != SiteWorkerPanic {
		t.Errorf("SolveError = %+v, want panicked at %s", se, SiteWorkerPanic)
	}
}

// TestWorkerStallHarmless: stalls (slow workers) skew timing but never
// correctness.
func TestWorkerStallHarmless(t *testing.T) {
	g := testGrid2D(t)
	var stalls atomic.Int64
	inj := core.InjectorFunc(func(s core.FaultSite) bool {
		if s == SiteWorkerStall {
			stalls.Add(1)
			// A real chaos injector sleeps here; the contract only needs
			// the site consulted, so count instead of sleeping.
			return true
		}
		return false
	})
	c, err := Greedy(g, Config{TileSize: 32}, &core.SolveOptions{Parallelism: 4, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if stalls.Load() == 0 {
		t.Error("stall site never consulted")
	}
}
