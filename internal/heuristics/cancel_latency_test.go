package heuristics

import (
	"context"
	"errors"
	"testing"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// cancelLatencyBound is how long a solver may keep running after its
// context is canceled. Derivation: solvers poll for cancellation every
// core.CtxCheckInterval (1024) placements, so the worst case between
// polls is 1024 placements plus one row/phase epilogue. A full 2048²
// GLL solve (4.19M placements) measures ≈ 0.7–1.3 s on the reference
// machine, i.e. ≲ 0.3 µs per placement, putting one polling window at
// ≲ 0.5 ms. 500 ms grants a ~1000× cushion for the race detector,
// CI-machine noise, and scheduler latency while still catching a
// regression that removes the polling (a full solve would blow it).
const cancelLatencyBound = 500 * time.Millisecond

// testCancelLatency runs alg on a 2048² grid, cancels mid-solve, and
// asserts the solver returns context.Canceled within the bound. The
// whole test suite runs packages concurrently, so a single probe can be
// starved for seconds by an unlucky scheduling storm; the contract is
// therefore best-of-three — contention noise rarely hits every attempt,
// while a real polling regression slows all of them.
func testCancelLatency(t *testing.T, alg Algorithm) {
	t.Helper()
	if raceEnabled {
		// The race detector slows the non-polling setup passes (order
		// construction, permutation check) by 10–20×, so a wall-clock
		// bound measures instrumentation, not polling. Cancellation
		// correctness under -race is covered by
		// TestCancellationAllAlgorithms.
		t.Skip("latency bound is meaningless under the race detector")
	}
	g := grid.MustGrid2D(2048, 2048)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%9)+1)
	}
	const attempts = 3
	var latencies []time.Duration
	for range attempts {
		latency := cancelLatencyProbe(t, alg, g)
		if latency <= cancelLatencyBound {
			return
		}
		latencies = append(latencies, latency)
	}
	t.Errorf("%s kept running after cancel on all %d attempts (%v), bound %v (CtxCheckInterval=%d)",
		alg, attempts, latencies, cancelLatencyBound, core.CtxCheckInterval)
}

// cancelLatencyProbe performs one mid-solve cancellation and returns
// how long the solver kept running afterwards.
func cancelLatencyProbe(t *testing.T, alg Algorithm, g *grid.Grid2D) time.Duration {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Run(alg, g, &core.SolveOptions{Ctx: ctx})
		done <- err
	}()
	// Let the solve get past setup and into the placement loop. A full
	// solve needs hundreds of milliseconds, so it cannot finish first on
	// any plausible machine — and if it somehow does, we skip rather
	// than flake.
	time.Sleep(20 * time.Millisecond)
	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		latency := time.Since(t0)
		if err == nil {
			t.Skipf("%s finished the 2048² solve before cancellation", alg)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", alg, err)
		}
		return latency
	case <-time.After(30 * time.Second):
		t.Fatalf("%s ignored cancellation entirely", alg)
		return 0
	}
}

// TestCancelLatencyGLL: canceling mid-solve stops GLL on a 2048² grid
// within the polling-interval-derived bound.
func TestCancelLatencyGLL(t *testing.T) {
	if testing.Short() {
		t.Skip("2048² latency probe skipped in -short mode")
	}
	testCancelLatency(t, GLL)
}

// TestCancelLatencyBDP: same contract for the slowest paper algorithm,
// whose decomposition and post passes each poll the context.
func TestCancelLatencyBDP(t *testing.T) {
	if testing.Short() {
		t.Skip("2048² latency probe skipped in -short mode")
	}
	testCancelLatency(t, BDP)
}
