package grid

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"stencilivc/internal/core"
)

// Morton2D interleaves the low 21 bits of i and j into a Z-order key:
// bit b of i lands at position 2b, bit b of j at position 2b+1. Sorting
// the cells by it is the reference the walked ZOrder must reproduce.
func Morton2D(i, j int) uint64 {
	return spread2(uint64(i)) | spread2(uint64(j))<<1
}

// Morton3D interleaves the low 21 bits of i, j, and k into a 3D Z-order key.
func Morton3D(i, j, k int) uint64 {
	return spread3(uint64(i)) | spread3(uint64(j))<<1 | spread3(uint64(k))<<2
}

// spread2 spaces the low 32 bits of v so consecutive bits are 2 apart.
func spread2(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// spread3 spaces the low 21 bits of v so consecutive bits are 3 apart.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// mortonSorted is the key-sorting Z-order: every cell's Morton key
// (Morton2D on a one-layer grid, Morton3D otherwise) radix-sorted by
// core.OrderByKey. Morton keys are unique, so the order has no ties.
func mortonSorted(x, y, z int) []int {
	keys := make([]uint64, 0, x*y*z)
	for k := range z {
		for j := range y {
			for i := range x {
				if z == 1 {
					keys = append(keys, Morton2D(i, j))
				} else {
					keys = append(keys, Morton3D(i, j, k))
				}
			}
		}
	}
	return core.OrderByKey(keys)
}

// TestZOrderMatchesMortonSort: the walked Z-order is the Morton-key sort
// on every 2D shape with sides 1–33, every 3D shape with sides 1–17, and
// the benchmark's 256² and 40³ and a ragged 128×37. Any reordering of
// two cells fails it.
func TestZOrderMatchesMortonSort(t *testing.T) {
	check := func(x, y, z int) {
		t.Helper()
		l := &lattice{x: x, y: y, z: z}
		if got, want := l.ZOrder(), mortonSorted(x, y, z); !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%dx%dx%d: ZOrder differs from the Morton sort at position %d of %d/%d",
				x, y, z, i, len(got), len(want))
		}
	}
	for x := 1; x <= 33; x++ {
		for y := 1; y <= 33; y++ {
			check(x, y, 1)
		}
	}
	for x := 1; x <= 17; x++ {
		for y := 1; y <= 17; y++ {
			for z := 2; z <= 17; z++ {
				check(x, y, z)
			}
		}
	}
	check(256, 256, 1)
	check(40, 40, 40)
	check(128, 37, 1)
}

// BenchmarkZOrder times GZO's visit order on the solve-batch shapes.
func BenchmarkZOrder(b *testing.B) {
	for _, sh := range [][3]int{{256, 256, 1}, {40, 40, 40}} {
		l := &lattice{x: sh[0], y: sh[1], z: sh[2]}
		b.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				l.ZOrder()
			}
		})
	}
}

func TestMorton2DKnown(t *testing.T) {
	cases := []struct {
		i, j int
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{2, 2, 12},
		{3, 3, 15},
	}
	for _, tc := range cases {
		if got := Morton2D(tc.i, tc.j); got != tc.want {
			t.Errorf("Morton2D(%d,%d) = %d, want %d", tc.i, tc.j, got, tc.want)
		}
	}
}

func TestMorton3DKnown(t *testing.T) {
	cases := []struct {
		i, j, k int
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
	}
	for _, tc := range cases {
		if got := Morton3D(tc.i, tc.j, tc.k); got != tc.want {
			t.Errorf("Morton3D(%d,%d,%d) = %d, want %d", tc.i, tc.j, tc.k, got, tc.want)
		}
	}
}

func TestMortonInjectiveQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 uint16) bool {
		if a1 == b1 && a2 == b2 {
			return true
		}
		return Morton2D(int(a1), int(a2)) != Morton2D(int(b1), int(b2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a1, a2, a3, b1, b2, b3 uint16) bool {
		if a1 == b1 && a2 == b2 && a3 == b3 {
			return true
		}
		return Morton3D(int(a1), int(a2), int(a3)) != Morton3D(int(b1), int(b2), int(b3))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestZOrder2DIsPermutation(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {4, 4}, {5, 3}, {7, 2}} {
		g := MustGrid2D(dims[0], dims[1])
		order := g.ZOrder()
		if err := core.CheckPermutation(order, g.Len()); err != nil {
			t.Errorf("%dx%d: %v", dims[0], dims[1], err)
		}
	}
}

func TestZOrder2DPowerOfTwoPrefix(t *testing.T) {
	// On a 4x4 grid, the first 4 vertices in Z-order form the 2x2 corner.
	g := MustGrid2D(4, 4)
	order := g.ZOrder()
	want := map[int]bool{g.ID(0, 0): true, g.ID(1, 0): true, g.ID(0, 1): true, g.ID(1, 1): true}
	for _, v := range order[:4] {
		if !want[v] {
			t.Fatalf("Z-order prefix contains %d, want 2x2 corner", v)
		}
	}
}

func TestZOrder3DIsPermutation(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {3, 4, 2}, {5, 1, 3}} {
		g := MustGrid3D(dims[0], dims[1], dims[2])
		order := g.ZOrder()
		if err := core.CheckPermutation(order, g.Len()); err != nil {
			t.Errorf("%v: %v", dims, err)
		}
	}
}

func TestLineByLineOrders(t *testing.T) {
	g2 := MustGrid2D(3, 2)
	order := g2.LineOrder()
	if err := core.CheckPermutation(order, 6); err != nil {
		t.Fatal(err)
	}
	for v, got := range order {
		if got != v {
			t.Fatalf("LineOrder()[%d] = %d", v, got)
		}
	}
	g3 := MustGrid3D(2, 2, 2)
	order3 := g3.LineOrder()
	if err := core.CheckPermutation(order3, 8); err != nil {
		t.Fatal(err)
	}
}
