package grid

import (
	"sort"
	"testing"

	"stencilivc/internal/core"
)

func sortedNeighbors(g core.Graph, v int) []int {
	n := g.Neighbors(v, nil)
	sort.Ints(n)
	return n
}

func TestGrid2DDimensions(t *testing.T) {
	if _, err := NewGrid2D(0, 3); err == nil {
		t.Error("0-width grid accepted")
	}
	if _, err := NewGrid2D(3, -1); err == nil {
		t.Error("negative height accepted")
	}
	g, err := NewGrid2D(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 20 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGrid2DIDRoundTrip(t *testing.T) {
	g := MustGrid2D(5, 4)
	for j := 0; j < 4; j++ {
		for i := 0; i < 5; i++ {
			v := g.ID(i, j)
			gi, gj := g.Coords(v)
			if gi != i || gj != j {
				t.Fatalf("Coords(ID(%d,%d)) = (%d,%d)", i, j, gi, gj)
			}
		}
	}
}

func TestGrid2DNeighbors(t *testing.T) {
	g := MustGrid2D(3, 3)
	// Center vertex (1,1) has all 8 neighbors.
	want := []int{0, 1, 2, 3, 5, 6, 7, 8}
	if got := sortedNeighbors(g, g.ID(1, 1)); !equalInts(got, want) {
		t.Errorf("center neighbors = %v, want %v", got, want)
	}
	// Corner (0,0) has 3.
	want = []int{1, 3, 4}
	if got := sortedNeighbors(g, 0); !equalInts(got, want) {
		t.Errorf("corner neighbors = %v, want %v", got, want)
	}
	// Edge (1,0) has 5.
	want = []int{0, 2, 3, 4, 5}
	if got := sortedNeighbors(g, 1); !equalInts(got, want) {
		t.Errorf("edge neighbors = %v, want %v", got, want)
	}
}

func TestGrid2DAdjacencyDefinition(t *testing.T) {
	// Cross-check Neighbors against the paper's |i-i'|<=1 && |j-j'|<=1 rule.
	g := MustGrid2D(4, 5)
	for v := 0; v < g.Len(); v++ {
		i, j := g.Coords(v)
		nbrs := map[int]bool{}
		for _, u := range g.Neighbors(v, nil) {
			nbrs[u] = true
		}
		for u := 0; u < g.Len(); u++ {
			ui, uj := g.Coords(u)
			want := u != v && abs(ui-i) <= 1 && abs(uj-j) <= 1
			if nbrs[u] != want {
				t.Fatalf("adjacency(%d,%d) = %v, want %v", v, u, nbrs[u], want)
			}
		}
	}
}

func TestGrid2DSetAt(t *testing.T) {
	g := MustGrid2D(3, 2)
	g.Set(2, 1, 7)
	if g.At(2, 1) != 7 {
		t.Errorf("At(2,1) = %d", g.At(2, 1))
	}
	if g.Weight(g.ID(2, 1)) != 7 {
		t.Error("Weight disagrees with At")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Set did not panic")
		}
	}()
	g.Set(0, 0, -1)
}

func TestFromWeights2D(t *testing.T) {
	g, err := FromWeights2D(2, 2, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %d", g.At(1, 1))
	}
	if _, err := FromWeights2D(2, 2, []int64{1}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := FromWeights2D(2, 2, []int64{1, 2, 3, -4}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestFivePtBipartite(t *testing.T) {
	g := MustGrid2D(4, 4)
	f := FivePt{G: g}
	var buf []int
	for v := 0; v < f.Len(); v++ {
		buf = f.Neighbors(v, buf[:0])
		for _, u := range buf {
			if f.Parity(u) == f.Parity(v) {
				t.Fatalf("5-pt edge (%d,%d) within one parity class", v, u)
			}
		}
	}
}

func TestFivePtNeighbors(t *testing.T) {
	g := MustGrid2D(3, 3)
	f := FivePt{G: g}
	want := []int{1, 3, 5, 7}
	if got := sortedNeighbors(f, 4); !equalInts(got, want) {
		t.Errorf("5-pt center neighbors = %v, want %v", got, want)
	}
	want = []int{1, 3}
	if got := sortedNeighbors(f, 0); !equalInts(got, want) {
		t.Errorf("5-pt corner neighbors = %v, want %v", got, want)
	}
}

func TestGrid2DClone(t *testing.T) {
	g := MustGrid2D(2, 2)
	g.Set(0, 0, 3)
	c := g.Clone()
	c.Set(0, 0, 8)
	if g.At(0, 0) != 3 {
		t.Error("Clone aliases original")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
