package order

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

func TestIdentity(t *testing.T) {
	if err := core.CheckPermutation(Identity(5), 5); err != nil {
		t.Fatal(err)
	}
	if len(Identity(0)) != 0 {
		t.Error("Identity(0) not empty")
	}
}

func TestByWeightDesc(t *testing.T) {
	g := core.Chain([]int64{2, 9, 4, 9})
	got := ByWeightDesc(g)
	// Heaviest first; the tied 9s keep increasing id order.
	if want := []int{1, 3, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestByDegreeDesc(t *testing.T) {
	// Star: center has max degree.
	star := core.MustCSRGraph([]int64{1, 1, 1, 1},
		[]core.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if got := ByDegreeDesc(star); got[0] != 0 {
		t.Errorf("star center not first: %v", got)
	}
}

func TestSmallestLast(t *testing.T) {
	// Path 0-1-2: vertex 0 (degree 1, lowest id) is removed first and so
	// colored last; the full removal cascade 0,1,2 reverses to 2,1,0.
	g := core.Chain([]int64{1, 1, 1})
	got := SmallestLast(g)
	if err := core.CheckPermutation(got, 3); err != nil {
		t.Fatal(err)
	}
	if got[2] != 0 {
		t.Errorf("first-removed min-degree vertex not colored last: %v", got)
	}
}

func TestSmallestLastIsPermutationQuick(t *testing.T) {
	f := func(seed int64, xs, ys uint8) bool {
		x, y := 1+int(xs%6), 1+int(ys%6)
		g := grid.MustGrid2D(x, y)
		rng := rand.New(rand.NewSource(seed))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(5))
		}
		return core.CheckPermutation(SmallestLast(g), g.Len()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestShuffledDeterministic(t *testing.T) {
	a := Shuffled(10, 42)
	b := Shuffled(10, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffled not deterministic for equal seeds")
		}
	}
	if err := core.CheckPermutation(a, 10); err != nil {
		t.Fatal(err)
	}
}

func TestIteratedGreedyStopsWhenStuck(t *testing.T) {
	// A clique coloring is already tight: no round can improve, so the
	// loop must stop after the first non-improving round.
	weights := []int64{3, 1, 4}
	g := core.Clique(weights)
	c := core.Coloring{Start: []int64{0, 3, 4}}
	if rounds := IteratedGreedy(g, c, 100); rounds != 0 {
		t.Errorf("rounds = %d on an optimal clique coloring", rounds)
	}
}
