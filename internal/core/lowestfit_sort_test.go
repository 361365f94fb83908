package core

import (
	"math/rand"
	"testing"
)

// TestLowestFitSortCrossover pins LowestFit against the brute-force
// reference at list lengths on both sides of smallSortMax: the short
// lists Fit answers without LowestFit, and the long general-graph lists
// it sorts.
func TestLowestFitSortCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, smallSortMax - 1, smallSortMax, smallSortMax + 1, 64, 100} {
		for trial := 0; trial < 50; trial++ {
			occ := make([]Interval, n)
			for i := range occ {
				occ[i] = NewInterval(rng.Int63n(60), rng.Int63n(5))
			}
			w := rng.Int63n(6)
			got := LowestFit(append([]Interval{}, occ...), w)
			want := bruteLowestFit(occ, w)
			if got != want {
				t.Fatalf("n=%d trial=%d w=%d: LowestFit=%d brute=%d (occ=%v)",
					n, trial, w, got, want, occ)
			}
		}
	}
}

// TestLowestFitSmallNoAllocs: LowestFit sorts in place with
// slices.SortFunc and touches no heap, here on a stencil-sized list. Fit
// hands it only general-graph lists longer than smallSortMax, so this
// pins the sort itself, not a stencil hot path.
func TestLowestFitSmallNoAllocs(t *testing.T) {
	occ := make([]Interval, MaxFixedDegree)
	rng := rand.New(rand.NewSource(3))
	refill := func() {
		for i := range occ {
			occ[i] = NewInterval(rng.Int63n(40), rng.Int63n(5))
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		refill()
		LowestFit(occ, 3)
	})
	if allocs != 0 {
		t.Errorf("LowestFit(d=%d) allocates %.1f per run, want 0", MaxFixedDegree, allocs)
	}
}
