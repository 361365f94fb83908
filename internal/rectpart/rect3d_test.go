package rectpart

import (
	"math/rand"
	"testing"

	"stencilivc/internal/grid"
)

func TestPartition3DNeverWorseThanUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		g := grid.MustGrid3D(3+rng.Intn(5), 3+rng.Intn(5), 3+rng.Intn(5))
		for v := range g.Len() {
			i, j, k := g.Coords(v)
			g.Set(i, j, k, rng.Int63n(15))
		}
		kx, ky, kz := 2, 2, 2
		uniform := Bottleneck3D(g,
			uniformCuts(g.X, kx), uniformCuts(g.Y, ky), uniformCuts(g.Z, kz))
		cx, cy, cz, b, err := Partition3D(g, kx, ky, kz, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := Bottleneck3D(g, cx, cy, cz); got != b {
			t.Fatalf("claimed bottleneck %d, realized %d", b, got)
		}
		if b > uniform {
			t.Fatalf("refinement worse than uniform: %d > %d", b, uniform)
		}
	}
}

func TestPartition3DSkewedCorner(t *testing.T) {
	g := grid.MustGrid3D(6, 6, 6)
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				g.Set(i, j, k, 8)
			}
		}
	}
	uniform := Bottleneck3D(g, uniformCuts(6, 2), uniformCuts(6, 2), uniformCuts(6, 2))
	_, _, _, b, err := Partition3D(g, 2, 2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b >= uniform {
		t.Fatalf("refinement %d did not beat uniform %d on skewed 3D grid", b, uniform)
	}
}

func TestPartition3DErrors(t *testing.T) {
	g := grid.MustGrid3D(2, 2, 2)
	if _, _, _, _, err := Partition3D(g, 3, 1, 1, 5); err == nil {
		t.Error("kx > X accepted")
	}
	if _, _, _, _, err := Partition3D(g, 0, 1, 1, 5); err == nil {
		t.Error("kx=0 accepted")
	}
}

func TestBottleneck3DWholeGrid(t *testing.T) {
	g := grid.MustGrid3D(2, 2, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, 1)
	}
	if b := Bottleneck3D(g, nil, nil, nil); b != 8 {
		t.Fatalf("bottleneck = %d, want 8", b)
	}
	if b := Bottleneck3D(g, []int{1}, []int{1}, []int{1}); b != 1 {
		t.Fatalf("unit blocks bottleneck = %d, want 1", b)
	}
}
