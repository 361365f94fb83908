package heuristics

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// Chaos-test algorithms, registered lazily so tests that pin the
// registry's production contents can filter them by the "test-" prefix.
const (
	testPanicAlg  Algorithm = "test-panic"  // always panics
	testCancelAlg Algorithm = "test-cancel" // always reports cancellation

	testCrashSite core.FaultSite = "test/alg-crash"
)

var registerChaosAlgs = sync.OnceFunc(func() {
	MustRegister(Descriptor{
		Name: testPanicAlg, Dims: DimBoth, Order: 900,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			if opts.Fault(testCrashSite) {
				panic(core.InjectedPanic{Site: testCrashSite})
			}
			panic("chaos-test: induced solver crash")
		},
	})
	MustRegister(Descriptor{
		Name: testCancelAlg, Dims: DimBoth, Order: 901,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.Coloring{}, context.Canceled
		},
	})
})

func degradeMetrics() *obsv.SolveMetrics {
	return obsv.NewSolveMetrics(obsv.NewRegistry())
}

// TestRunRecoversPanic: Run converts a solver panic into a typed
// *core.SolveError carrying the algorithm name, and counts the recovery.
func TestRunRecoversPanic(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(4, 4)
	m := degradeMetrics()
	_, err := Run(testPanicAlg, g, &core.SolveOptions{Metrics: m})
	var se *core.SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *core.SolveError", err, err)
	}
	if se.Algorithm != string(testPanicAlg) || !se.Panicked {
		t.Errorf("SolveError = %+v, want panicked %s", se, testPanicAlg)
	}
	if m.PanicsRecovered.Value() != 1 {
		t.Errorf("solver_panics_recovered_total = %d, want 1", m.PanicsRecovered.Value())
	}
}

// TestRunRecoversInjectedPanic: an injector-induced crash keeps its
// fault site through recovery into the typed error.
func TestRunRecoversInjectedPanic(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(4, 4)
	inj := core.InjectorFunc(func(s core.FaultSite) bool { return s == testCrashSite })
	_, err := Run(testPanicAlg, g, &core.SolveOptions{Injector: inj})
	var se *core.SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *core.SolveError", err)
	}
	if se.Site != testCrashSite {
		t.Errorf("SolveError.Site = %q, want %q", se.Site, testCrashSite)
	}
}

// TestPortfolioDegradesOnPanic: one crashing member is dropped, the
// survivors still compete, and the result matches the portfolio run
// without the crasher — sequentially and in parallel.
func TestPortfolioDegradesOnPanic(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(10, 10)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%5)+1)
	}
	wantC, wantAlg, err := Portfolio(g, []Algorithm{GLL, GLF}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		m := degradeMetrics()
		c, alg, err := Portfolio(g, []Algorithm{GLL, testPanicAlg, GLF},
			&core.SolveOptions{Parallelism: par, Metrics: m})
		if err != nil {
			t.Fatalf("par=%d: degraded portfolio errored: %v", par, err)
		}
		if alg != wantAlg || !reflect.DeepEqual(c.Start, wantC.Start) {
			t.Errorf("par=%d: degraded result (%s) differs from crash-free portfolio (%s)",
				par, alg, wantAlg)
		}
		if m.PanicsRecovered.Value() == 0 {
			t.Errorf("par=%d: solver_panics_recovered_total = 0, want > 0", par)
		}
	}
}

// TestPortfolioAllDegraded: when every member crashes there is nothing
// to degrade to; the earliest typed error surfaces.
func TestPortfolioAllDegraded(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(4, 4)
	_, _, err := Portfolio(g, []Algorithm{testPanicAlg, testPanicAlg}, nil)
	var se *core.SolveError
	if !errors.As(err, &se) || !se.Panicked {
		t.Fatalf("err = %v, want panicked *core.SolveError", err)
	}
}

// TestPortfolioUnknownStillFatal: configuration mistakes (an unknown
// algorithm name) abort the portfolio even when other members complete
// — degradation covers crashes, not misconfiguration.
func TestPortfolioUnknownStillFatal(t *testing.T) {
	g := grid.MustGrid2D(4, 4)
	_, _, err := Portfolio(g, []Algorithm{GLL, "no-such-alg"}, nil)
	if err == nil || errors.Is(err, core.ErrPartial) {
		t.Fatalf("err = %v, want a fatal unknown-algorithm error", err)
	}
}

// TestPortfolioPartialOnCancel: with PartialOnCancel, a portfolio cut
// short by cancellation returns the best coloring among the members
// that completed, tagged ErrPartial and counted; without the flag the
// cancellation aborts as before.
func TestPortfolioPartialOnCancel(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(10, 10)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%5)+1)
	}
	algs := []Algorithm{GLL, testCancelAlg, GLF}

	m := degradeMetrics()
	c, alg, err := Portfolio(g, algs, &core.SolveOptions{PartialOnCancel: true, Metrics: m})
	if !errors.Is(err, core.ErrPartial) {
		t.Fatalf("err = %v, want core.ErrPartial", err)
	}
	if alg == "" {
		t.Fatal("partial result carries no winning algorithm")
	}
	if verr := c.Validate(g); verr != nil {
		t.Fatalf("partial coloring invalid: %v", verr)
	}
	if m.PartialResults.Value() != 1 {
		t.Errorf("solver_partial_results_total = %d, want 1", m.PartialResults.Value())
	}

	if _, _, err := Portfolio(g, algs, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("without PartialOnCancel: err = %v, want context.Canceled", err)
	}
}

// TestPortfolioPartialNothingCompleted: PartialOnCancel with zero
// completed members has nothing to return; the cancellation propagates.
func TestPortfolioPartialNothingCompleted(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(4, 4)
	m := degradeMetrics()
	_, _, err := Portfolio(g, []Algorithm{testCancelAlg},
		&core.SolveOptions{PartialOnCancel: true, Metrics: m})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if m.PartialResults.Value() != 0 {
		t.Errorf("solver_partial_results_total = %d, want 0", m.PartialResults.Value())
	}
}
