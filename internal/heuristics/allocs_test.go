package heuristics

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"stencilivc/internal/grid"
)

// solveAllocs is the heap-allocation count of one Run of alg on s. The
// collector is paused while it counts: a collection empties the
// FitScratch pool, and the refill would show as noise in the count.
func solveAllocs(t *testing.T, alg Algorithm, s grid.Stencil) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, func() {
		if _, err := Run(alg, s, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOrderedHeuristicsAllocsSizeIndependent pins the visit orders and
// the clique cover as a constant number of allocations per solve: the
// Morton and weight orders, GKF's and SGK's block sweeps, and BDP's
// recoloring order allocate the same count on a grid four (2D) or eight
// (3D) times larger. A per-block or per-vertex allocation would show as
// a count that grows with the grid.
func TestOrderedHeuristicsAllocsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches at random under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	pairs := []struct{ small, large grid.Stencil }{
		{random2D(rng, 64, 64, 9), random2D(rng, 128, 128, 9)},
		{random3D(rng, 16, 16, 16, 9), random3D(rng, 32, 32, 32, 9)},
	}
	for _, p := range pairs {
		for _, alg := range []Algorithm{GZO, GLF, GKF, SGK} {
			small, large := solveAllocs(t, alg, p.small), solveAllocs(t, alg, p.large)
			if small != large {
				t.Errorf("%s %dD: %v allocs on the small grid, %v on the large one", alg, p.small.Dims(), small, large)
			}
		}
		// BD's row decomposition allocates per row; BDP adds only its
		// recoloring order on top.
		extraSmall := solveAllocs(t, BDP, p.small) - solveAllocs(t, BD, p.small)
		extraLarge := solveAllocs(t, BDP, p.large) - solveAllocs(t, BD, p.large)
		if extraSmall != extraLarge {
			t.Errorf("BDP %dD: %v allocs over BD on the small grid, %v on the large one",
				p.small.Dims(), extraSmall, extraLarge)
		}
		t.Logf("%dD: BDP allocates %v over BD", p.small.Dims(), extraSmall)
	}
}
