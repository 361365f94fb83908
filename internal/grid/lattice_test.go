package grid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestOneLayerLattice pins the identity both grid types rest on: a 9-pt
// grid is the 27-pt stencil one layer deep. A Grid2D and the
// Grid3D(x, y, 1) of the same weights agree on the stencil and its
// relaxation (neighbors in order, degree, parity), on the traversal
// orders and the clique cover, and on every tiling.
func TestOneLayerLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, sh := range [][2]int{
		{1, 1}, {1, 7}, {9, 1}, {2, 2}, {17, 13}, {64, 64}, {100, 37}, {256, 256}, {1000, 3},
	} {
		x, y := sh[0], sh[1]
		w := make([]int64, x*y)
		for v := range w {
			w[v] = rng.Int63n(10)
		}
		g2, err := FromWeights2D(x, y, w)
		if err != nil {
			t.Fatal(err)
		}
		g3, err := FromWeights3D(x, y, 1, w)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%dx%d", x, y)
		f, s := FivePt{G: g2}, SevenPt{G: g3}
		for v := range g2.Len() {
			if a, b := g2.Neighbors(v, nil), g3.Neighbors(v, nil); !slices.Equal(a, b) {
				t.Fatalf("%s vertex %d: Neighbors %v, one-layer %v", name, v, a, b)
			}
			if a, b := f.Neighbors(v, nil), s.Neighbors(v, nil); !slices.Equal(a, b) {
				t.Fatalf("%s vertex %d: FivePt Neighbors %v, SevenPt %v", name, v, a, b)
			}
			if g2.Degree(v) != g3.Degree(v) || f.Degree(v) != s.Degree(v) || f.Parity(v) != s.Parity(v) {
				t.Fatalf("%s vertex %d: Degree %d/%d, axis Degree %d/%d, Parity %d/%d", name, v,
					g2.Degree(v), g3.Degree(v), f.Degree(v), s.Degree(v), f.Parity(v), s.Parity(v))
			}
		}
		if !slices.Equal(g2.LineOrder(), g3.LineOrder()) {
			t.Errorf("%s: LineOrder differs", name)
		}
		if !slices.Equal(g2.ZOrder(), g3.ZOrder()) {
			t.Errorf("%s: ZOrder differs", name)
		}
		c2, c3 := g2.CliqueBlocks(), g3.CliqueBlocks()
		if !slices.Equal(c2.Offsets, c3.Offsets) || !slices.Equal(c2.Anchor, c3.Anchor) || !slices.Equal(c2.Weight, c3.Weight) {
			t.Errorf("%s: CliqueBlocks differ", name)
		}
		for _, size := range []int{1, 5, 64} {
			t2, err := g2.Tiling(size)
			if err != nil {
				t.Fatal(err)
			}
			t3, err := g3.Tiling(size)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(t2.Tiles, t3.Tiles) {
				t.Fatalf("%s size %d: tiles differ", name, size)
			}
			for v := range g2.Len() {
				if t2.TileOf(v) != t3.TileOf(v) {
					t.Fatalf("%s size %d: TileOf(%d) %d, one-layer %d", name, size, v, t2.TileOf(v), t3.TileOf(v))
				}
			}
			for _, tile := range t2.Tiles {
				if !slices.Equal(t2.AppendBoundary(tile, nil), t3.AppendBoundary(tile, nil)) {
					t.Fatalf("%s size %d tile %d: boundaries differ", name, size, tile.ID)
				}
			}
		}
	}
}

// TestCellOutsideGridPanics: ID, At and Set on a cell outside the grid
// panic on both grid types, negative coordinates and k included, and
// leave the weights and their total unchanged.
func TestCellOutsideGridPanics(t *testing.T) {
	g2, err := FromWeights2D(3, 2, []int64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-1, 0}, {3, 0}, {0, -1}, {0, 2}, {3, 1}, {-1, -1}} {
		i, j := c[0], c[1]
		mustPanic(t, fmt.Sprintf("Grid2D.ID(%d,%d)", i, j), func() { g2.ID(i, j) })
		mustPanic(t, fmt.Sprintf("Grid2D.At(%d,%d)", i, j), func() { g2.At(i, j) })
		mustPanic(t, fmt.Sprintf("Grid2D.Set(%d,%d)", i, j), func() { g2.Set(i, j, 9) })
	}
	if !slices.Equal(g2.w, []int64{1, 2, 3, 4, 5, 6}) || g2.total != 21 {
		t.Errorf("Grid2D changed to %v, total %d", g2.w, g2.total)
	}

	w3 := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	g3, err := FromWeights3D(3, 2, 2, w3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][3]int{
		{-1, 0, 0}, {3, 0, 0}, {0, -1, 0}, {0, 2, 0}, {0, 0, -1}, {0, 0, 2}, {2, 1, -1}, {3, 1, 0},
	} {
		i, j, k := c[0], c[1], c[2]
		mustPanic(t, fmt.Sprintf("Grid3D.ID(%d,%d,%d)", i, j, k), func() { g3.ID(i, j, k) })
		mustPanic(t, fmt.Sprintf("Grid3D.At(%d,%d,%d)", i, j, k), func() { g3.At(i, j, k) })
		mustPanic(t, fmt.Sprintf("Grid3D.Set(%d,%d,%d)", i, j, k), func() { g3.Set(i, j, k, 9) })
	}
	if !slices.Equal(g3.w, w3) || g3.total != 78 {
		t.Errorf("Grid3D changed to %v, total %d", g3.w, g3.total)
	}
}
