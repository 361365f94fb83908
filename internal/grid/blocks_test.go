package grid

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// members lists block b's vertex ids in stored order.
func members(cv Cover, b int) []int {
	var vs []int
	for _, off := range cv.Offsets {
		vs = append(vs, cv.Anchor[b]+off)
	}
	return vs
}

// checkBlockWeights asserts every block weight is the sum of its members'.
func checkBlockWeights(t *testing.T, cv Cover, w []int64) {
	t.Helper()
	if len(cv.Weight) != cv.Len() {
		t.Fatalf("%d weights for %d blocks", len(cv.Weight), cv.Len())
	}
	for b := range cv.Len() {
		var sum int64
		for _, v := range members(cv, b) {
			sum += w[v]
		}
		if sum != cv.Weight[b] {
			t.Errorf("block %d (anchor %d): weight %d != member sum %d", b, cv.Anchor[b], cv.Weight[b], sum)
		}
	}
}

// checkMutualAdjacency asserts every block is a clique of g.
func checkMutualAdjacency(t *testing.T, g Stencil) {
	t.Helper()
	cv := g.CliqueBlocks()
	for b := range cv.Len() {
		vs := members(cv, b)
		for i, v := range vs {
			nbrs := map[int]bool{}
			for _, u := range g.Neighbors(v, nil) {
				nbrs[u] = true
			}
			for j, u := range vs {
				if i != j && !nbrs[u] {
					t.Fatalf("block vertices %d and %d not adjacent", v, u)
				}
			}
		}
	}
}

func TestBlocks2DEnumeration(t *testing.T) {
	g, err := FromWeights2D(3, 3, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	cv := g.CliqueBlocks()
	if !slices.Equal(cv.Offsets, []int{0, 1, 3, 4}) {
		t.Errorf("K4 offsets = %v, want [0 1 3 4]", cv.Offsets)
	}
	// One block per anchor (i,j), i < X-1 and j < Y-1, in id order.
	if !slices.Equal(cv.Anchor, []int{0, 1, 3, 4}) {
		t.Errorf("anchors = %v, want [0 1 3 4]", cv.Anchor)
	}
	// Anchor (0,0): vertices 0,1,3,4 with weights 1+2+4+5 = 12.
	if cv.Weight[0] != 12 {
		t.Errorf("block(0,0) weight = %d, want 12", cv.Weight[0])
	}
	checkBlockWeights(t, cv, g.w)
}

func TestBlocks2DMutualAdjacency(t *testing.T) {
	checkMutualAdjacency(t, MustGrid2D(4, 3))
}

// TestBlocks2DDegenerate: chains get their edge pairs, a single vertex
// a block of its own.
func TestBlocks2DDegenerate(t *testing.T) {
	for _, g := range []*Grid2D{MustGrid2D(1, 5), MustGrid2D(5, 1)} {
		cv := g.CliqueBlocks()
		if !slices.Equal(cv.Offsets, []int{0, 1}) || !slices.Equal(cv.Anchor, []int{0, 1, 2, 3}) {
			t.Errorf("%v: offsets %v anchors %v, want the chain pairs", g, cv.Offsets, cv.Anchor)
		}
	}
	one := MustGrid2D(1, 1)
	one.Set(0, 0, 7)
	cv := one.CliqueBlocks()
	if !slices.Equal(cv.Offsets, []int{0}) || !slices.Equal(cv.Anchor, []int{0}) || cv.Weight[0] != 7 {
		t.Errorf("1x1: %+v, want one block {0} of weight 7", cv)
	}
}

func TestBlocks3DEnumeration(t *testing.T) {
	g := MustGrid3D(3, 2, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, 1)
	}
	cv := g.CliqueBlocks()
	if cv.Len() != 2 {
		t.Fatalf("blocks = %d, want 2", cv.Len())
	}
	// Members a, a+1, a+X, a+X+1, then the same four one layer up.
	if want := []int{0, 1, 3, 4, 6, 7, 9, 10}; !slices.Equal(cv.Offsets, want) {
		t.Errorf("K8 offsets = %v, want %v", cv.Offsets, want)
	}
	for b, w := range cv.Weight {
		if w != 8 {
			t.Errorf("K8 block %v weight %d", members(cv, b), w)
		}
	}
	checkBlockWeights(t, cv, g.w)
}

func TestBlocks3DMutualAdjacency(t *testing.T) {
	checkMutualAdjacency(t, MustGrid3D(3, 3, 2))
}

// TestCoverOrientations: a 3D grid with one unit axis gets exactly the
// cover of the 2D grid it flattens to, whichever axis is the unit one.
func TestCoverOrientations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][3]int{{4, 3, 1}, {4, 1, 3}, {1, 4, 3}} {
		g := MustGrid3D(sh[0], sh[1], sh[2])
		for v := range g.Len() {
			i, j, k := g.Coords(v)
			g.Set(i, j, k, rng.Int63n(10))
		}
		flat, err := FromWeights2D(4, 3, g.w)
		if err != nil {
			t.Fatal(err)
		}
		got, want := g.CliqueBlocks(), flat.CliqueBlocks()
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Anchor, want.Anchor) ||
			!slices.Equal(got.Weight, want.Weight) {
			t.Errorf("%v: cover %+v, want the 4x3 cover %+v", sh, got, want)
		}
		checkMutualAdjacency(t, g)
	}
}

// TestSortBlocksByWeightDesc: blocks come heaviest first, ties by anchor,
// exactly as a stable sort by descending weight over the anchors.
func TestSortBlocksByWeightDesc(t *testing.T) {
	cv := Cover{Offsets: []int{0}, Anchor: []int{0, 1, 2, 3}, Weight: []int64{5, 9, 9, 1}}
	if got := cv.ByWeightDesc(); !slices.Equal(got, []int{1, 2, 0, 3}) {
		t.Errorf("order = %v, want [1 2 0 3]", got)
	}
	rng := rand.New(rand.NewSource(3))
	for _, spread := range []int64{4, 1 << 20, math.MaxInt64} {
		cv := Cover{Offsets: []int{0}}
		for b := range 500 {
			cv.Anchor = append(cv.Anchor, 3*b)
			w := rng.Int63n(spread)
			if rng.Intn(4) == 0 {
				w = -w
			}
			cv.Weight = append(cv.Weight, w)
		}
		want := make([]int, cv.Len())
		for b := range want {
			want[b] = b
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(cv.Weight[b], cv.Weight[a]) })
		if got := cv.ByWeightDesc(); !slices.Equal(got, want) {
			t.Fatalf("spread %d: ByWeightDesc disagrees with the stable reference", spread)
		}
	}
}

func TestPairBlocksAndMaxWeight(t *testing.T) {
	g, err := FromWeights2D(1, 3, []int64{4, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	cv := g.CliqueBlocks()
	if cv.Len() != 2 {
		t.Fatalf("pair blocks = %d", cv.Len())
	}
	if cv.Weight[0] != 5 || cv.Weight[1] != 4 {
		t.Errorf("pair weights %d,%d", cv.Weight[0], cv.Weight[1])
	}
	if cv.MaxWeight() != 5 {
		t.Errorf("MaxWeight = %d", cv.MaxWeight())
	}
	if (Cover{}).MaxWeight() != 0 {
		t.Error("MaxWeight of an empty cover != 0")
	}
}
