package chaos

import (
	"testing"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/parallel"
)

// The e2e suite drives the tile-parallel solvers (PGLL on a 2048² 9-pt
// instance, PGLF on a 128³ 27-pt instance) through induced worker
// panics and a probabilistic fault storm, asserting the degradation
// ladder always lands on a complete, valid coloring with the
// degraded-solve counters recording the events.
// Under the race detector the grids shrink (the ladder is size-blind;
// full-size runs would multiply the ~15× slowdown).

func e2eGrid2D(t *testing.T) *grid.Grid2D {
	t.Helper()
	x := 2048
	if raceEnabled {
		x = 256
	}
	g := grid.MustGrid2D(x, x)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%9)+1)
	}
	return g
}

func e2eGrid3D(t *testing.T) *grid.Grid3D {
	t.Helper()
	x := 128
	if raceEnabled {
		x = 32
	}
	g := grid.MustGrid3D(x, x, x)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, int64(v%9)+1)
	}
	return g
}

// e2eCase runs parallel.Greedy under inj and asserts a valid coloring.
func e2eCase(t *testing.T, s grid.Stencil, cfg parallel.Config, inj *Injector) *obsv.SolveMetrics {
	t.Helper()
	m := obsv.NewSolveMetrics(obsv.NewRegistry())
	opts := &core.SolveOptions{Parallelism: 4, Metrics: m}
	if inj != nil {
		opts.Injector = inj
	}
	c, err := parallel.Greedy(s, cfg, opts)
	if err != nil {
		t.Fatalf("chaos solve errored (%v): %v", inj, err)
	}
	if err := c.Validate(s); err != nil {
		t.Fatalf("chaos solve invalid (%v): %v", inj, err)
	}
	return m
}

// TestChaosWorkerPanicPGLL2D: an induced worker panic mid-speculation
// on the 2048² PGLL solve degrades to the sequential bedrock.
func TestChaosWorkerPanicPGLL2D(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size chaos e2e skipped in -short mode")
	}
	inj := New(42).OnNth(parallel.SiteWorkerPanic, 2).Panicking(parallel.SiteWorkerPanic)
	m := e2eCase(t, e2eGrid2D(t), parallel.Config{Order: parallel.OrderLine}, inj)
	if inj.Fires(parallel.SiteWorkerPanic) != 1 {
		t.Errorf("panic fired %d times, want 1 (%v)", inj.Fires(parallel.SiteWorkerPanic), inj)
	}
	if m.PanicsRecovered.Value() == 0 {
		t.Error("solver_panics_recovered_total = 0, want > 0")
	}
	if m.Fallbacks.Value() == 0 {
		t.Error("solver_fallbacks_total = 0, want > 0")
	}
}

// TestChaosWorkerPanicPGLF3D: the same ladder on the 128³ PGLF solve.
func TestChaosWorkerPanicPGLF3D(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size chaos e2e skipped in -short mode")
	}
	inj := New(43).OnNth(parallel.SiteWorkerPanic, 2).Panicking(parallel.SiteWorkerPanic)
	m := e2eCase(t, e2eGrid3D(t), parallel.Config{Order: parallel.OrderWeightDesc}, inj)
	if m.PanicsRecovered.Value() == 0 {
		t.Error("solver_panics_recovered_total = 0, want > 0")
	}
	if m.Fallbacks.Value() == 0 {
		t.Error("solver_fallbacks_total = 0, want > 0")
	}
}

// TestChaosStorm: probabilistic halo misreads and brief worker stalls
// at once — no single deterministic trigger, but the misreads' conflicts
// must all be found by the sweep and placed by the repair pass, and the
// solve must deliver a valid coloring.
func TestChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size chaos e2e skipped in -short mode")
	}
	inj := New(46).
		WithProb(parallel.SiteHaloRead, 0.2).
		EveryNth(parallel.SiteWorkerStall, 3, 8).
		Stalling(parallel.SiteWorkerStall, 200*time.Microsecond)
	e2eCase(t, e2eGrid2D(t), parallel.Config{Order: parallel.OrderLine}, inj)
	if inj.TotalFires() == 0 {
		t.Errorf("storm fired nothing: %v", inj)
	}
}
