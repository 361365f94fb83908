// External test package (like integration_test.go): colorings come from
// the registered heuristics, which import order back via the
// tile-parallel solvers' fallback path.
package order_test

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	. "stencilivc/internal/order"
)

func TestRepairFixesPerturbedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		g := grid.MustGrid2D(4+rng.Intn(8), 4+rng.Intn(8))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(12))
		}
		c, err := heuristics.Run(heuristics.BDP, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb a minority of weights, invalidating the coloring.
		for i := 0; i < g.Len()/5+1; i++ {
			ci, cj := g.Coords(rng.Intn(g.Len()))
			g.Set(ci, cj, rng.Int63n(20))
		}
		changed := Repair(g, c)
		if err := c.Validate(g); err != nil {
			t.Fatalf("repair left an invalid coloring: %v", err)
		}
		// Stability: repair should touch far fewer vertices than a fresh
		// coloring would re-place (everything).
		if changed > g.Len() {
			t.Fatalf("changed %d of %d vertices", changed, g.Len())
		}
	}
}

func TestRepairOnValidColoringIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := grid.MustGrid2D(6, 6)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(9))
	}
	c, err := heuristics.Run(heuristics.GLF, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int64{}, c.Start...)
	if changed := Repair(g, c); changed != 0 {
		t.Fatalf("repair changed %d vertices of a valid coloring", changed)
	}
	for v := range before {
		if c.Start[v] != before[v] {
			t.Fatalf("start of %d moved", v)
		}
	}
}

func TestRepairCompletesPartialColoring(t *testing.T) {
	g := grid.MustGrid2D(3, 3)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, 2)
	}
	c := core.NewColoring(g.Len()) // everything unset
	c.Start[4] = 0                 // center pre-colored
	Repair(g, c)
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c.Start[4] != 0 {
		t.Fatal("pre-colored vertex moved")
	}
}

func TestRepairStability(t *testing.T) {
	// A single weight bump should disturb only a local neighborhood.
	rng := rand.New(rand.NewSource(93))
	g := grid.MustGrid2D(12, 12)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, 3+rng.Int63n(3))
	}
	c, err := heuristics.Run(heuristics.BDP, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(6, 6, g.At(6, 6)+4)
	changed := Repair(g, c)
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if changed > g.Len()/2 {
		t.Fatalf("one bump moved %d of %d vertices", changed, g.Len())
	}
}

// TestRepairAllocsSizeIndependent pins Repair to a constant number of
// allocations per call: re-placing a vertex goes through the placement
// kernel's own buffers, so a grid four times larger, with four times as
// many perturbed weights, allocates exactly as often. The collector is
// paused while it counts.
func TestRepairAllocsSizeIndependent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(94))
		g := grid.MustGrid2D(n, n)
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, 1+rng.Int63n(9))
		}
		c, err := heuristics.Run(heuristics.GLL, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Len()/10; i++ {
			ci, cj := g.Coords(rng.Intn(g.Len()))
			g.Set(ci, cj, 1+rng.Int63n(20))
		}
		colored := slices.Clone(c.Start)
		if changed := Repair(g, c); changed == 0 {
			t.Fatalf("%d²: the perturbation moved no vertex", n)
		}
		return testing.AllocsPerRun(5, func() {
			copy(c.Start, colored)
			Repair(g, c)
		})
	}
	if small, large := allocs(64), allocs(128); small != large {
		t.Errorf("Repair allocates %v times on 64², %v on 128²", small, large)
	}
}
