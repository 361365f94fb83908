package grid

import (
	"testing"
	"testing/quick"

	"stencilivc/internal/core"
)

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
