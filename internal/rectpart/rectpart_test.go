package rectpart

import (
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
		uniform := Bottleneck2D(g, uniformCuts(g.X, kx), uniformCuts(g.Y, ky))
		cx, cy, b, err := Partition2D(g, kx, ky, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := Bottleneck2D(g, cx, cy); got != b {
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
	uniform := Bottleneck2D(g, uniformCuts(8, 2), uniformCuts(8, 2))
	_, _, b, err := Partition2D(g, 2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b >= uniform {
		t.Fatalf("refinement %d did not beat uniform %d on a skewed grid", b, uniform)
	}
}

func TestPartition2DErrors(t *testing.T) {
	g := grid.MustGrid2D(3, 3)
	if _, _, _, err := Partition2D(g, 0, 2, 5); err == nil {
		t.Error("kx=0 accepted")
	}
	if _, _, _, err := Partition2D(g, 4, 2, 5); err == nil {
		t.Error("kx > X accepted")
	}
}

func TestBottleneck2DFullGridSinglePart(t *testing.T) {
	g, err := grid.FromWeights2D(2, 2, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if b := Bottleneck2D(g, nil, nil); b != 10 {
		t.Fatalf("single block bottleneck = %d, want 10", b)
	}
}
