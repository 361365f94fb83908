package heuristics

import (
	"math/rand"
	"testing"

	"stencilivc/internal/bounds"
	"stencilivc/internal/grid"
)

func TestSGK3DFullValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		g := random3D(rng, 2+rng.Intn(2), 2+rng.Intn(2), 2+rng.Intn(2), 9)
		c := SmartLargestCliqueFirst3DFull(g)
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		if c.MaxColor(g) < bounds.MaxK8(g) {
			t.Fatal("below the K8 bound")
		}
	}
}

func TestSGK3DFullSingleBlockIsOptimal(t *testing.T) {
	// A lone K8 is a clique: the full-permutation variant must reach the
	// clique optimum (total weight) exactly, like its 2D sibling.
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		g := grid.MustGrid3D(2, 2, 2)
		var total int64
		for v := range g.Len() {
			i, j, k := g.Coords(v)
			g.Set(i, j, k, rng.Int63n(9))
			total += g.Weight(v)
		}
		c := SmartLargestCliqueFirst3DFull(g)
		if c.MaxColor(g) != total {
			t.Fatalf("K8 coloring = %d, want clique sum %d", c.MaxColor(g), total)
		}
	}
}

func TestSGK3DFullVsSorted(t *testing.T) {
	// The full variant explores a superset of the sorted variant's
	// choices per block, but commits greedily block by block, so global
	// dominance is not guaranteed; verify both are valid and report the
	// relationship for the record.
	rng := rand.New(rand.NewSource(73))
	fullWins, sortedWins := 0, 0
	for trial := 0; trial < 10; trial++ {
		g := random3D(rng, 3, 3, 3, 9)
		full := SmartLargestCliqueFirst3DFull(g)
		sorted := mustRun(t, SGK, g)
		if err := full.Validate(g); err != nil {
			t.Fatal(err)
		}
		if err := sorted.Validate(g); err != nil {
			t.Fatal(err)
		}
		switch {
		case full.MaxColor(g) < sorted.MaxColor(g):
			fullWins++
		case sorted.MaxColor(g) < full.MaxColor(g):
			sortedWins++
		}
	}
	t.Logf("full wins %d, sorted wins %d of 10", fullWins, sortedWins)
}
