package grid

import (
	"bytes"
	"crypto/sha256"
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
		if !slices.Equal(c2.Offsets, c3.Offsets) || !slices.Equal(anchors(c2), anchors(c3)) || !slices.Equal(c2.Weight, c3.Weight) {
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
			for _, tile := range t2.Tiles {
				if !slices.Equal(t2.AppendLowFaces(tile, nil), t3.AppendLowFaces(tile, nil)) {
					t.Fatalf("%s size %d tile %d: low faces differ", name, size, tile.ID)
				}
				for _, v := range tile.AppendVertices(nil) {
					if t2.Halo(tile, v) != t3.Halo(tile, v) {
						t.Fatalf("%s size %d: Halo(%d) %+v, one-layer %+v", name, size, v, t2.Halo(tile, v), t3.Halo(tile, v))
					}
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

// TestDigestNativeMatchesEncoded holds Digest's fast path, one Write
// of the weight slice's own bytes on a little-endian host, to the
// portable loop that encodes 512 weights at a time: the same hash state
// for weight counts below, at and across the loop's chunk, over random
// values of either sign.
func TestDigestNativeMatchesEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 7, 511, 512, 513, 1200, 4096} {
		w := make([]int64, n)
		for i := range w {
			w[i] = rng.Int63() - rng.Int63()
		}
		native, encoded := sha256.New(), sha256.New()
		writeWeights(native, w)
		encodeWeights(encoded, w)
		if a, b := native.Sum(nil), encoded.Sum(nil); !bytes.Equal(a, b) {
			t.Errorf("%d weights: native %x, encoded %x", n, a, b)
		}
	}
}
