package grid

import (
	"slices"
	"sort"
	"testing"
)

// tileOf is the reference tile lookup the halo arithmetic replaces: the
// ID of the tile containing vertex v, from v's coordinates by division.
func tileOf(tl *Tiling, v int) int {
	i := v % tl.gx
	v /= tl.gx
	j := v % tl.gy
	k := v / tl.gy
	return (k/tl.Size*tl.nty+j/tl.Size)*tl.ntx + i/tl.Size
}

// TestTilingPartition: across shapes and tile sizes, the tiles cover
// every vertex exactly once, AppendVertices agrees with the tile bounds,
// and the reference tileOf maps each vertex back to its owning tile.
func TestTilingPartition(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {7, 1, 1}, {13, 9, 1}, {32, 32, 1},
		{1, 1, 5}, {3, 4, 5}, {8, 8, 8}, {9, 5, 7},
	}
	for _, sh := range shapes {
		for _, size := range []int{1, 2, 3, 5, 64} {
			tl, err := NewTiling(sh[0], sh[1], sh[2], size)
			if err != nil {
				t.Fatal(err)
			}
			n := sh[0] * sh[1] * sh[2]
			seen := make([]int, n)
			total := 0
			for ti, tile := range tl.Tiles {
				if tile.ID != ti {
					t.Fatalf("%v size=%d: tile %d has ID %d", sh, size, ti, tile.ID)
				}
				verts := tile.AppendVertices(nil)
				if len(verts) != tile.Len() {
					t.Fatalf("%v size=%d tile %d: %d vertices, Len()=%d",
						sh, size, ti, len(verts), tile.Len())
				}
				total += len(verts)
				for _, v := range verts {
					if v < 0 || v >= n {
						t.Fatalf("%v size=%d tile %d: vertex %d out of range", sh, size, ti, v)
					}
					seen[v]++
					if got := tileOf(tl, v); got != tile.ID {
						t.Fatalf("%v size=%d: tileOf(%d) = %d, want %d", sh, size, v, got, tile.ID)
					}
				}
			}
			if total != n {
				t.Fatalf("%v size=%d: tiles cover %d vertices, want %d", sh, size, total, n)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("%v size=%d: vertex %d covered %d times", sh, size, v, c)
				}
			}
		}
	}
}

// TestTilingBoundary checks AppendLowFaces against a brute-force
// definition: a cell is listed iff some stencil neighbor lies in an
// earlier tile, and LowFaceLen counts the list. On the full 9-pt/27-pt
// stencils every cell on a shared low face has a neighbor across it, so
// the two definitions coincide.
func TestTilingBoundary(t *testing.T) {
	cases := []struct {
		g    Stencil
		size int
	}{
		{MustGrid2D(13, 9), 4},
		{MustGrid2D(8, 8), 3},
		{MustGrid2D(5, 1), 2},
		{MustGrid2D(1, 9), 1},
		{MustGrid3D(6, 5, 4), 2},
		{MustGrid3D(8, 8, 8), 3},
		{MustGrid3D(9, 1, 1), 2},
		{MustGrid3D(3, 3, 3), 5}, // single tile: no boundary at all
	}
	for _, tc := range cases {
		tl, err := tc.g.Tiling(tc.size)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range tl.Tiles {
			got := tl.AppendLowFaces(tile, nil)
			if !sort.IntsAreSorted(got) {
				t.Fatalf("%v size=%d tile %d: low faces not ascending", tc.g, tc.size, tile.ID)
			}
			if n := tl.LowFaceLen(tile); n != len(got) {
				t.Fatalf("%v size=%d tile %d: LowFaceLen %d, %d cells listed", tc.g, tc.size, tile.ID, n, len(got))
			}
			var want []int
			for _, v := range tile.AppendVertices(nil) {
				for _, u := range tc.g.Neighbors(v, nil) {
					if tileOf(tl, u) < tile.ID {
						want = append(want, v)
						break
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v size=%d tile %d: low faces %v, want %v", tc.g, tc.size, tile.ID, got, want)
			}
		}
	}
}

// TestHaloCross: for every cell and every stencil neighbor, on shapes
// with unit and clipped edges and tile sizes 1, 2, 3 and 16, Cross gives
// the difference of the neighbor's and the cell's tile IDs.
func TestHaloCross(t *testing.T) {
	for _, sh := range [][3]int{
		{1, 1, 1}, {1, 9, 1}, {9, 1, 1}, {2, 2, 1}, {13, 9, 1}, {33, 17, 1},
		{9, 1, 1}, {1, 1, 9}, {1, 7, 5}, {3, 4, 5}, {9, 5, 7}, {17, 18, 19},
	} {
		g := &lattice{x: sh[0], y: sh[1], z: sh[2]}
		for _, size := range []int{1, 2, 3, 16} {
			tl, err := NewTiling(sh[0], sh[1], sh[2], size)
			if err != nil {
				t.Fatal(err)
			}
			var nb []int
			for _, tile := range tl.Tiles {
				for _, v := range tile.AppendVertices(nil) {
					h := tl.Halo(tile, v)
					for _, u := range g.Neighbors(v, nb[:0]) {
						if got, want := h.Cross(u), tileOf(tl, u)-tile.ID; got != want {
							t.Fatalf("%v size %d: Cross(%d) from %d = %d, want %d", sh, size, u, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTilingErrors: invalid sizes and extents are rejected.
func TestTilingErrors(t *testing.T) {
	if _, err := NewTiling(4, 4, 1, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewTiling(0, 4, 1, 2); err == nil {
		t.Error("zero extent accepted")
	}
}
