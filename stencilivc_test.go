package stencilivc

import (
	"bytes"
	"math/rand"
	"testing"
)

func random2D(rng *rand.Rand, x, y int) *Grid2D {
	g := MustGrid2D(x, y)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(10))
	}
	return g
}

func TestSolve2DAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := random2D(rng, 6, 5)
	lb := LowerBound2D(g)
	for _, alg := range Algorithms() {
		c, err := Solve2D(alg, g)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if c.MaxColor(g) < lb {
			t.Fatalf("%s beat the lower bound", alg)
		}
	}
}

func TestSolve3DAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := MustGrid3D(3, 3, 3)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(10))
	}
	lb := LowerBound3D(g)
	for _, alg := range Algorithms() {
		c, err := Solve3D(alg, g)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if c.MaxColor(g) < lb {
			t.Fatalf("%s beat the lower bound", alg)
		}
	}
}

func TestBest2DPicksMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := random2D(rng, 5, 5)
	best, alg, err := Best2D(g)
	if err != nil {
		t.Fatal(err)
	}
	if alg == "" {
		t.Fatal("no winning algorithm")
	}
	bestVal := best.MaxColor(g)
	for _, a := range Algorithms() {
		c, err := Solve2D(a, g)
		if err != nil {
			t.Fatal(err)
		}
		if c.MaxColor(g) < bestVal {
			t.Fatalf("%s (%d) beats reported best %s (%d)", a, c.MaxColor(g), alg, bestVal)
		}
	}
}

func TestBest3D(t *testing.T) {
	g := MustGrid3D(2, 2, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, 2)
	}
	best, _, err := Best3D(g)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform K8: optimum is 16.
	if best.MaxColor(g) != 16 {
		t.Fatalf("best = %d, want 16", best.MaxColor(g))
	}
}

func TestOptimal2DProvesSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := random2D(rng, 3, 3)
	res := Optimal2D(g, 500_000)
	if !res.Optimal {
		t.Fatal("3x3 not solved optimally")
	}
	if err := res.Coloring.Validate(g); err != nil {
		t.Fatal(err)
	}
	best, _, err := Best2D(g)
	if err != nil {
		t.Fatal(err)
	}
	if best.MaxColor(g) < res.MaxColor {
		t.Fatalf("heuristic %d beats proven optimum %d", best.MaxColor(g), res.MaxColor)
	}
}

func TestOptimal3DSmall(t *testing.T) {
	g := MustGrid3D(2, 2, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, int64(v%3))
	}
	res := Optimal3D(g, 500_000)
	if !res.Optimal {
		t.Fatal("2x2x2 not solved optimally")
	}
	if res.MaxColor != LowerBound3D(g) {
		// The K8 bound is the whole-grid clique sum here, hence tight.
		t.Fatalf("optimum %d != K8 bound %d", res.MaxColor, LowerBound3D(g))
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := random2D(rng, 4, 3)
	var buf bytes.Buffer
	if err := WriteInstance2D(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, g3, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g3 != nil || g2.X() != 4 || g2.Y() != 3 {
		t.Fatal("round trip mangled the instance")
	}
	g3d := MustGrid3D(2, 2, 2)
	g3d.Set(1, 1, 0, 9)
	buf.Reset()
	if err := WriteInstance3D(&buf, g3d); err != nil {
		t.Fatal(err)
	}
	_, back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Weight(3) != 9 {
		t.Fatal("3D round trip lost weights")
	}
}

func TestTaskDAGAndSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := random2D(rng, 4, 4)
	c, err := Solve2D(BDP, g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TaskDAG(g, c)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Simulate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := Simulate(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s4.Makespan > s1.Makespan {
		t.Fatalf("more workers slower: %d > %d", s4.Makespan, s1.Makespan)
	}
	if s4.Makespan < d.CriticalPath() {
		t.Fatalf("makespan below critical path")
	}
}

func TestFromWeightsValidation(t *testing.T) {
	if _, err := FromWeights2D(2, 2, []int64{1}); err == nil {
		t.Error("short 2D weights accepted")
	}
	if _, err := FromWeights3D(2, 2, 2, make([]int64, 7)); err == nil {
		t.Error("short 3D weights accepted")
	}
	if _, err := NewGrid2D(0, 1); err == nil {
		t.Error("bad dims accepted")
	}
	if _, err := NewGrid3D(1, 0, 1); err == nil {
		t.Error("bad 3D dims accepted")
	}
}
