package rectpart

import (
	"math"
	"math/rand"
	"testing"

	"stencilivc/internal/grid"
)

// brute1D finds the true optimal bottleneck by enumerating all cut
// combinations.
func brute1D(loads []int64, k int) int64 {
	n := len(loads)
	best := int64(1) << 62
	cuts := make([]int, k-1)
	var rec func(idx, from int)
	rec = func(idx, from int) {
		if idx == k-1 {
			bounds := append(append([]int{0}, cuts...), n)
			var worst int64
			for p := 0; p+1 < len(bounds); p++ {
				var sum int64
				for i := bounds[p]; i < bounds[p+1]; i++ {
					sum += loads[i]
				}
				worst = max(worst, sum)
			}
			best = min(best, worst)
			return
		}
		for c := from; c <= n; c++ {
			cuts[idx] = c
			rec(idx+1, c)
		}
	}
	rec(0, 0)
	return best
}

func TestPartition1DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		loads := make([]int64, n)
		for i := range loads {
			loads[i] = rng.Int63n(10)
		}
		k := 1 + rng.Intn(n)
		cuts, got, err := Partition1D(loads, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cuts) != k-1 {
			t.Fatalf("cuts = %v for k = %d", cuts, k)
		}
		want := brute1D(loads, k)
		if got != want {
			t.Fatalf("loads %v k %d: bottleneck %d, optimal %d", loads, k, got, want)
		}
		// The returned cuts must realize the claimed bottleneck.
		bounds := append(append([]int{0}, cuts...), n)
		for p := 0; p+1 < len(bounds); p++ {
			var sum int64
			for i := bounds[p]; i < bounds[p+1]; i++ {
				sum += loads[i]
			}
			if sum > got {
				t.Fatalf("cut realization exceeds bottleneck: %v", cuts)
			}
		}
	}
}

func TestPartition1DErrors(t *testing.T) {
	if _, _, err := Partition1D([]int64{1, 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Partition1D([]int64{1, -2}, 1); err == nil {
		t.Error("negative load accepted")
	}
	if _, _, err := Partition1D([]int64{math.MaxInt64, 1, 5}, 2); err == nil {
		t.Error("loads whose total overflows int64 accepted")
	}
}

func TestPartition1DKnown(t *testing.T) {
	cuts, b, err := Partition1D([]int64{4, 1, 1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b != 5 {
		t.Fatalf("bottleneck = %d, want 5", b)
	}
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v, want [2]", cuts)
	}
}

func TestPartition2DNeverWorseThanUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		g := grid.MustGrid2D(4+rng.Intn(8), 4+rng.Intn(8))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(20))
		}
		kx, ky := 2+rng.Intn(3), 2+rng.Intn(3)
		uniform := Bottleneck(g, [3][]int{uniformCuts(g.X(), kx), uniformCuts(g.Y(), ky), nil})
		cuts, b, err := Partition(g, [3]int{kx, ky, 1}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := Bottleneck(g, cuts); got != b {
			t.Fatalf("claimed bottleneck %d, realized %d", b, got)
		}
		if b > uniform {
			t.Fatalf("refinement worse than uniform: %d > %d", b, uniform)
		}
	}
}

func TestPartition2DBalancesSkew(t *testing.T) {
	// All weight in one corner: uniform 2x2 puts everything in one block;
	// refinement must cut tighter around the hotspot.
	g := grid.MustGrid2D(8, 8)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			g.Set(i, j, 10)
		}
	}
	uniform := Bottleneck(g, [3][]int{uniformCuts(8, 2), uniformCuts(8, 2), nil})
	_, b, err := Partition(g, [3]int{2, 2, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b >= uniform {
		t.Fatalf("refinement %d did not beat uniform %d on a skewed grid", b, uniform)
	}
}

func TestPartition2DErrors(t *testing.T) {
	g := grid.MustGrid2D(3, 3)
	if _, _, err := Partition(g, [3]int{0, 2, 1}, 5); err == nil {
		t.Error("kx=0 accepted")
	}
	if _, _, err := Partition(g, [3]int{4, 2, 1}, 5); err == nil {
		t.Error("kx > X accepted")
	}
}

func TestBottleneck2DFullGridSinglePart(t *testing.T) {
	g, err := grid.FromWeights2D(2, 2, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if b := Bottleneck(g, [3][]int{}); b != 10 {
		t.Fatalf("single block bottleneck = %d, want 10", b)
	}
}

func TestPartition3DNeverWorseThanUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		g := grid.MustGrid3D(3+rng.Intn(5), 3+rng.Intn(5), 3+rng.Intn(5))
		for v := range g.Len() {
			i, j, k := g.Coords(v)
			g.Set(i, j, k, rng.Int63n(15))
		}
		kx, ky, kz := 2, 2, 2
		uniform := Bottleneck(g,
			[3][]int{uniformCuts(g.X(), kx), uniformCuts(g.Y(), ky), uniformCuts(g.Z(), kz)})
		cuts, b, err := Partition(g, [3]int{kx, ky, kz}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := Bottleneck(g, cuts); got != b {
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
	uniform := Bottleneck(g, [3][]int{uniformCuts(6, 2), uniformCuts(6, 2), uniformCuts(6, 2)})
	_, b, err := Partition(g, [3]int{2, 2, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b >= uniform {
		t.Fatalf("refinement %d did not beat uniform %d on skewed 3D grid", b, uniform)
	}
}

func TestPartition3DErrors(t *testing.T) {
	g := grid.MustGrid3D(2, 2, 2)
	if _, _, err := Partition(g, [3]int{3, 1, 1}, 5); err == nil {
		t.Error("kx > X accepted")
	}
	if _, _, err := Partition(g, [3]int{0, 1, 1}, 5); err == nil {
		t.Error("kx=0 accepted")
	}
}

func TestBottleneck3DWholeGrid(t *testing.T) {
	g := grid.MustGrid3D(2, 2, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, 1)
	}
	if b := Bottleneck(g, [3][]int{}); b != 8 {
		t.Fatalf("bottleneck = %d, want 8", b)
	}
	if b := Bottleneck(g, [3][]int{{1}, {1}, {1}}); b != 1 {
		t.Fatalf("unit blocks bottleneck = %d, want 1", b)
	}
}
