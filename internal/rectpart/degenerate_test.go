package rectpart

import (
	"testing"

	"stencilivc/internal/grid"
)

// checkCuts asserts interior cuts are sorted and within [0, n] — the
// contract boundsFromCuts relies on even for degenerate inputs.
func checkCuts(t *testing.T, name string, cuts []int, k, n int) {
	t.Helper()
	if len(cuts) != k-1 {
		t.Fatalf("%s: %d cuts for k=%d", name, len(cuts), k)
	}
	prev := 0
	for _, c := range cuts {
		if c < prev || c > n {
			t.Fatalf("%s: cuts %v not sorted within [0,%d]", name, cuts, n)
		}
		prev = c
	}
}

func TestPartition1DDegenerate(t *testing.T) {
	// One part: no cuts, bottleneck is the total.
	cuts, b, err := Partition1D([]int64{3, 0, 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 || b != 10 {
		t.Fatalf("k=1: cuts=%v b=%d, want no cuts and 10", cuts, b)
	}

	// k equal to the length: every element its own part.
	loads := []int64{5, 1, 9, 2}
	cuts, b, err = Partition1D(loads, len(loads))
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "k=n", cuts, len(loads), len(loads))
	if b != 9 {
		t.Fatalf("k=n bottleneck = %d, want max element 9", b)
	}

	// All-zero loads split with bottleneck zero at any k.
	cuts, b, err = Partition1D(make([]int64, 6), 4)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "all-zero", cuts, 4, 6)
	if b != 0 {
		t.Fatalf("all-zero bottleneck = %d, want 0", b)
	}

	// More parts than positive entries: trailing parts go empty.
	cuts, b, err = Partition1D([]int64{8, 0, 0, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "sparse", cuts, 4, 4)
	if b != 8 {
		t.Fatalf("sparse bottleneck = %d, want 8", b)
	}

	// Single element, k=1.
	cuts, b, err = Partition1D([]int64{42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 || b != 42 {
		t.Fatalf("singleton: cuts=%v b=%d", cuts, b)
	}

	// Empty input is only partitionable into one (empty) part.
	if _, b, err := Partition1D(nil, 1); err != nil || b != 0 {
		t.Fatalf("empty k=1: b=%d err=%v", b, err)
	}
}

func TestPartition2DStrips(t *testing.T) {
	// A 1×N strip can only split along its long axis; the short axis
	// admits exactly one part, and asking for more must error rather
	// than emit unusable cuts.
	g := grid.MustGrid2D(1, 12)
	for v := range g.W {
		g.W[v] = int64(v + 1)
	}
	cutsX, cutsY, b, err := Partition2D(g, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "strip-x", cutsX, 1, 1)
	checkCuts(t, "strip-y", cutsY, 4, 12)
	if got := Bottleneck2D(g, cutsX, cutsY); got != b {
		t.Fatalf("claimed bottleneck %d, realized %d", b, got)
	}
	if _, _, _, err := Partition2D(g, 2, 4, 0); err == nil {
		t.Error("kx=2 accepted on a 1-wide grid")
	}

	// The transposed strip behaves symmetrically.
	gt := grid.MustGrid2D(12, 1)
	copy(gt.W, g.W)
	_, _, bt, err := Partition2D(gt, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bt != b {
		t.Fatalf("transposed strip bottleneck %d != %d", bt, b)
	}
}

func TestPartition2DAxisSaturated(t *testing.T) {
	// k equal to the axis size on both axes: every cell its own block.
	g := grid.MustGrid2D(3, 4)
	for v := range g.W {
		g.W[v] = int64(v%7) + 1
	}
	cutsX, cutsY, b, err := Partition2D(g, 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "sat-x", cutsX, 3, 3)
	checkCuts(t, "sat-y", cutsY, 4, 4)
	var heaviest int64
	for _, w := range g.W {
		heaviest = max(heaviest, w)
	}
	if b != heaviest {
		t.Fatalf("saturated bottleneck = %d, want heaviest cell %d", b, heaviest)
	}
	// One past the axis size errors.
	if _, _, _, err := Partition2D(g, 4, 4, 0); err == nil {
		t.Error("kx > g.X accepted")
	}
	if _, _, _, err := Partition2D(g, 3, 5, 0); err == nil {
		t.Error("ky > g.Y accepted")
	}
}

func TestPartition2DZeroWeightRows(t *testing.T) {
	// All weight in the top half; the refinement must tolerate
	// zero-load strips (empty blocks are fine, cuts stay valid).
	g := grid.MustGrid2D(8, 8)
	for j := 4; j < 8; j++ {
		for i := 0; i < 8; i++ {
			g.W[j*8+i] = int64(i + j)
		}
	}
	cutsX, cutsY, b, err := Partition2D(g, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "zero-x", cutsX, 3, 8)
	checkCuts(t, "zero-y", cutsY, 3, 8)
	if got := Bottleneck2D(g, cutsX, cutsY); got != b {
		t.Fatalf("claimed bottleneck %d, realized %d", b, got)
	}

	// The fully zero grid partitions with bottleneck zero.
	z := grid.MustGrid2D(6, 6)
	_, _, zb, err := Partition2D(z, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zb != 0 {
		t.Fatalf("all-zero grid bottleneck = %d, want 0", zb)
	}
}

func TestPartition3DDegenerate(t *testing.T) {
	// A single zero-weight z-plane between two loaded ones.
	g := grid.MustGrid3D(4, 4, 3)
	for k := 0; k < 3; k += 2 {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				g.W[(k*4+j)*4+i] = int64(i + j + 1)
			}
		}
	}
	cutsX, cutsY, cutsZ, b, err := Partition3D(g, 2, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "3d-x", cutsX, 2, 4)
	checkCuts(t, "3d-y", cutsY, 2, 4)
	checkCuts(t, "3d-z", cutsZ, 3, 3)
	if got := Bottleneck3D(g, cutsX, cutsY, cutsZ); got != b {
		t.Fatalf("claimed bottleneck %d, realized %d", b, got)
	}

	// Degenerate 1×1×N tube: only the z axis may shard.
	tube := grid.MustGrid3D(1, 1, 9)
	for v := range tube.W {
		tube.W[v] = 1
	}
	_, _, cutsZ, b, err = Partition3D(tube, 1, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCuts(t, "tube-z", cutsZ, 3, 9)
	if b != 3 {
		t.Fatalf("tube bottleneck = %d, want 3", b)
	}
	if _, _, _, _, err := Partition3D(tube, 2, 1, 3, 0); err == nil {
		t.Error("kx=2 accepted on a 1-wide tube")
	}
}
