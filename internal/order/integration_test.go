// External test package: these tests drive order's post-optimizers on
// colorings produced by the registered heuristics, which (via the
// tile-parallel solvers) import order back — an external package breaks
// that cycle.
package order_test

import (
	"math/rand"
	"testing"

	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	. "stencilivc/internal/order"
)

func TestRecolorNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := grid.MustGrid2D(2+rng.Intn(6), 2+rng.Intn(6))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(9))
		}
		c, err := heuristics.Run(heuristics.GLL, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := c.MaxColor(g)
		for _, ord := range [][]int{
			ByStartAsc(c), ByEndDesc(g, c), Shuffled(g.Len(), rng.Int63()),
		} {
			Recolor(g, c, ord)
			if err := c.Validate(g); err != nil {
				t.Fatalf("recolor broke validity: %v", err)
			}
			if now := c.MaxColor(g); now > before {
				t.Fatalf("recolor worsened %d -> %d", before, now)
			}
			before = c.MaxColor(g)
		}
	}
}

func TestIteratedGreedyImprovesBD(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	improvedSomewhere := false
	for trial := 0; trial < 20; trial++ {
		g := grid.MustGrid2D(6, 6)
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(20))
		}
		c, err := heuristics.Run(heuristics.BD, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := c.MaxColor(g)
		IteratedGreedy(g, c, 10)
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		after := c.MaxColor(g)
		if after > before {
			t.Fatalf("iterated greedy worsened %d -> %d", before, after)
		}
		if after < before {
			improvedSomewhere = true
		}
	}
	// BD's lifted odd rows leave obvious slack; iterated greedy should
	// find an improvement on at least one of 20 random instances.
	if !improvedSomewhere {
		t.Error("iterated greedy never improved BD; post-optimization broken?")
	}
}
