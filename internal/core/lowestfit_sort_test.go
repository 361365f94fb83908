package core

import (
	"math/rand"
	"testing"
)

// TestLowestFitSortCrossover pins LowestFit against the brute-force
// reference at occupancy sizes straddling the smallSortMax threshold, so
// the insertion-sort branch and the slices.SortFunc fallback are both checked
// on the same distribution.
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

// TestInsertionSortByStart: the inline sort agrees with the byStart order
// on adversarial patterns (sorted, reversed, duplicates, empty runs).
func TestInsertionSortByStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(smallSortMax + 1)
		occ := make([]Interval, n)
		for i := range occ {
			occ[i] = NewInterval(rng.Int63n(8), rng.Int63n(4))
		}
		insertionSortByStart(occ)
		for i := 1; i < n; i++ {
			if byStart(occ[i-1], occ[i]) > 0 {
				t.Fatalf("trial %d: not sorted at %d: %v", trial, i, occ)
			}
		}
	}
}

// TestLowestFitSmallNoAllocs: for stencil-sized occupancy lists, LowestFit
// must not touch the heap — this is the contract the tile-parallel
// solver's per-placement cost model relies on.
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
