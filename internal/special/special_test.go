package special

import (
	"errors"
	"math/rand"
	"testing"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/exact"
	"stencilivc/internal/grid"
)

func TestColorCliqueOptimal(t *testing.T) {
	weights := []int64{3, 1, 4}
	starts, mc := ColorClique(weights)
	if mc != 8 {
		t.Fatalf("maxcolor = %d, want 8", mc)
	}
	g := core.Clique(weights)
	c := core.Coloring{Start: starts}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c.MaxColor(g) != 8 {
		t.Fatalf("MaxColor = %d", c.MaxColor(g))
	}
}

func TestColorCliqueEmptyAndZero(t *testing.T) {
	if _, mc := ColorClique(nil); mc != 0 {
		t.Error("empty clique maxcolor != 0")
	}
	starts, mc := ColorClique([]int64{0, 5, 0})
	if mc != 5 {
		t.Errorf("maxcolor = %d", mc)
	}
	_ = starts
}

func TestBipartition(t *testing.T) {
	g := core.CompleteBipartite([]int64{1, 1}, []int64{1, 1, 1})
	side, err := Bipartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if side[0] != side[1] || side[2] != side[3] || side[0] == side[2] {
		t.Errorf("sides = %v", side)
	}
	tri := core.Clique([]int64{1, 1, 1})
	if _, err := Bipartition(tri); !errors.Is(err, ErrNotBipartite) {
		t.Errorf("triangle bipartitioned: %v", err)
	}
	// Disconnected graph.
	dis := core.MustCSRGraph([]int64{1, 1, 1, 1}, []core.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if _, err := Bipartition(dis); err != nil {
		t.Errorf("disconnected bipartite rejected: %v", err)
	}
}

func TestColorBipartiteOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		na, nb := 1+rng.Intn(3), 1+rng.Intn(3)
		a := make([]int64, na)
		b := make([]int64, nb)
		for i := range a {
			a[i] = rng.Int63n(6)
		}
		for i := range b {
			b[i] = rng.Int63n(6)
		}
		g := core.CompleteBipartite(a, b)
		c, mc, err := ColorBipartite(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		if got := c.MaxColor(g); got > mc {
			t.Fatalf("coloring exceeds claimed maxcolor: %d > %d", got, mc)
		}
		want, err := exact.BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mc != want.MaxColor {
			t.Fatalf("trial %d: bipartite maxcolor = %d, optimal = %d", trial, mc, want.MaxColor)
		}
	}
}

func TestColorBipartiteRejectsOddCycle(t *testing.T) {
	g := core.Clique([]int64{1, 2, 3})
	if _, _, err := ColorBipartite(g); !errors.Is(err, ErrNotBipartite) {
		t.Errorf("err = %v", err)
	}
}

func TestColorChainOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(7)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = rng.Int63n(7)
		}
		starts := make([]int64, n)
		mc := ColorChain(starts, weights)
		g := core.Chain(weights)
		c := core.Coloring{Start: starts}
		if err := c.Validate(g); err != nil {
			t.Fatalf("trial %d: %v (weights %v, starts %v)", trial, err, weights, starts)
		}
		if got := c.MaxColor(g); got > mc {
			t.Fatalf("chain coloring exceeds claimed maxcolor")
		}
		want, err := exact.BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mc != want.MaxColor {
			t.Fatalf("trial %d: chain maxcolor = %d, optimal = %d", trial, mc, want.MaxColor)
		}
	}
}

func TestOddCycleOptimumErrors(t *testing.T) {
	if _, err := OddCycleOptimum([]int64{1, 2}); err == nil {
		t.Error("2-cycle accepted")
	}
	if _, err := OddCycleOptimum([]int64{1, 2, 3, 4}); err == nil {
		t.Error("even cycle accepted")
	}
}

// TestOddCycleTheorem1 validates both directions of Theorem 1 on random
// odd cycles: the constructive coloring achieves max(maxpair, minchain3),
// and the exact solver confirms no better coloring exists.
func TestOddCycleTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := []int{3, 5, 7}[rng.Intn(3)]
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = rng.Int63n(8)
		}
		starts, mc, err := ColorOddCycle(weights)
		if err != nil {
			t.Fatal(err)
		}
		wantMC := max(bounds.MaxPairOfCycle(weights), bounds.MinChain3OfCycle(weights))
		if mc != wantMC {
			t.Fatalf("claimed maxcolor %d != theorem value %d", mc, wantMC)
		}
		g, err := core.Cycle(weights)
		if err != nil {
			t.Fatal(err)
		}
		c := core.Coloring{Start: starts}
		if err := c.Validate(g); err != nil {
			t.Fatalf("trial %d: invalid cycle coloring: %v\nweights=%v starts=%v",
				trial, err, weights, starts)
		}
		if got := c.MaxColor(g); got > mc {
			t.Fatalf("cycle coloring uses %d > %d colors", got, mc)
		}
		opt, err := exact.BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt.MaxColor != mc {
			t.Fatalf("trial %d: theorem says %d, exact says %d (weights %v)",
				trial, mc, opt.MaxColor, weights)
		}
	}
}

// TestFigure2 reproduces the paper's Figure 2: an odd cycle whose optimal
// interval coloring (30) strictly exceeds its largest clique weight (25).
// The paper does not print the weights; this instance realizes the same
// phenomenon with maxpair = 25 and minchain3 = 30.
func TestFigure2(t *testing.T) {
	weights := []int64{10, 15, 10, 15, 10} // C5: maxpair 25, minchain3 35? -> compute
	mp := bounds.MaxPairOfCycle(weights)
	m3 := bounds.MinChain3OfCycle(weights)
	if mp != 25 || m3 != 35 {
		t.Fatalf("instance sums off: maxpair=%d minchain3=%d", mp, m3)
	}
	// Adjust to hit exactly 30: use 10,15,5,15,10 -> pairs max 25, chains:
	// 10+15+5=30, 15+5+15=35, 5+15+10=30, 15+10+10=35, 10+10+15=35.
	weights = []int64{10, 15, 5, 15, 10}
	mp = bounds.MaxPairOfCycle(weights)
	m3 = bounds.MinChain3OfCycle(weights)
	if mp != 25 || m3 != 30 {
		t.Fatalf("figure-2 instance sums off: maxpair=%d minchain3=%d", mp, m3)
	}
	mc, err := OddCycleOptimum(weights)
	if err != nil {
		t.Fatal(err)
	}
	if mc != 30 {
		t.Fatalf("optimum = %d, want 30 (> clique bound 25)", mc)
	}
	g, _ := core.Cycle(weights)
	opt, err := exact.BruteForce(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.MaxColor != 30 {
		t.Fatalf("exact solver disagrees: %d", opt.MaxColor)
	}
}

func TestColorFivePtOptimalForRelaxation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := grid.MustGrid2D(3, 3)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(6))
	}
	c, mc := ColorFivePt(g)
	f := grid.FivePt{G: g}
	if err := c.Validate(f); err != nil {
		t.Fatal(err)
	}
	if got := c.MaxColor(f); got > mc {
		t.Fatalf("5-pt coloring uses %d > %d", got, mc)
	}
	if mc != bounds.MaxPair(f) {
		t.Fatalf("5-pt maxcolor %d != pair bound %d (not optimal)", mc, bounds.MaxPair(f))
	}
}

func TestColorSevenPtOptimalForRelaxation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := grid.MustGrid3D(2, 3, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(6))
	}
	c, mc := ColorSevenPt(g)
	s := grid.SevenPt{G: g}
	if err := c.Validate(s); err != nil {
		t.Fatal(err)
	}
	if mc != bounds.MaxPair(s) {
		t.Fatalf("7-pt maxcolor %d != pair bound %d (not optimal)", mc, bounds.MaxPair(s))
	}
}
