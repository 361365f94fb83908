package grid

import (
	"sort"
	"testing"

	"stencilivc/internal/core"
)

// TestStencilHooks2D: the dimension-generic hooks are permutations, and
// ZOrder sorts the cells by their Morton2D key.
func TestStencilHooks2D(t *testing.T) {
	g := MustGrid2D(5, 4)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%3))
	}
	var s Stencil = g
	if s.Dims() != 2 {
		t.Errorf("Dims = %d, want 2", s.Dims())
	}
	if err := core.CheckPermutation(s.LineOrder(), g.Len()); err != nil {
		t.Errorf("LineOrder: %v", err)
	}
	if err := core.CheckPermutation(s.ZOrder(), g.Len()); err != nil {
		t.Errorf("ZOrder: %v", err)
	}
	key := func(v int) uint64 { return Morton2D(g.Coords(v)) }
	zo := g.LineOrder()
	sort.Slice(zo, func(a, b int) bool { return key(zo[a]) < key(zo[b]) })
	for i, v := range s.ZOrder() {
		if v != zo[i] {
			t.Fatalf("ZOrder()[%d] = %d, by Morton2D key %d", i, v, zo[i])
		}
	}
	if got, want := s.CliqueBlocks().Len(), (g.X()-1)*(g.Y()-1); got != want {
		t.Errorf("CliqueBlocks: %d blocks, want %d", got, want)
	}
}

// TestStencilHooks3D mirrors the 2D hook test.
func TestStencilHooks3D(t *testing.T) {
	g := MustGrid3D(3, 4, 2)
	var s Stencil = g
	if s.Dims() != 3 {
		t.Errorf("Dims = %d, want 3", s.Dims())
	}
	if err := core.CheckPermutation(s.LineOrder(), g.Len()); err != nil {
		t.Errorf("LineOrder: %v", err)
	}
	if err := core.CheckPermutation(s.ZOrder(), g.Len()); err != nil {
		t.Errorf("ZOrder: %v", err)
	}
	if got, want := s.CliqueBlocks().Len(), (g.X()-1)*(g.Y()-1)*(g.Z()-1); got != want {
		t.Errorf("CliqueBlocks: %d blocks, want %d", got, want)
	}
}

// TestCliqueBlocksDegenerate: block fallbacks cover every vertex on
// degenerate shapes, so the block heuristics stay total.
func TestCliqueBlocksDegenerate(t *testing.T) {
	shapes2 := [][2]int{{1, 1}, {1, 6}, {7, 1}}
	for _, sh := range shapes2 {
		g := MustGrid2D(sh[0], sh[1])
		assertBlocksCover(t, g.CliqueBlocks(), g.Len(), g.String())
	}
	shapes3 := [][3]int{{1, 1, 1}, {1, 1, 5}, {1, 5, 1}, {5, 1, 1}, {4, 4, 1}, {4, 1, 4}, {1, 4, 4}}
	for _, sh := range shapes3 {
		g := MustGrid3D(sh[0], sh[1], sh[2])
		assertBlocksCover(t, g.CliqueBlocks(), g.Len(), g.String())
	}
}

func assertBlocksCover(t *testing.T, cv Cover, n int, label string) {
	t.Helper()
	if cv.Len() == 0 {
		t.Errorf("%s: no clique blocks", label)
		return
	}
	covered := make([]bool, n)
	for b := range cv.Len() {
		for _, v := range members(cv, b) {
			if v < 0 || v >= n {
				t.Fatalf("%s: block vertex %d out of range", label, v)
			}
			covered[v] = true
		}
	}
	for v, ok := range covered {
		if !ok {
			t.Errorf("%s: vertex %d not covered by any block", label, v)
		}
	}
}
