package rectpart

import (
	"math/rand"
	"slices"
	"testing"

	"stencilivc/internal/grid"
)

// pinWeights returns the seeded x-fastest weights of an x×y×z lattice
// (x loads when y = z = 1): each drawn from [0, maxW), and every row
// j < zeroRows of every layer left at zero.
func pinWeights(x, y, z int, seed, maxW int64, zeroRows int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int64, x*y*z)
	for v := range w {
		if v/x%y >= zeroRows {
			w[v] = rng.Int63n(maxW)
		}
	}
	return w
}

// partitionPins holds the cuts and bottleneck that Partition1D (dims 1,
// k[0] parts of the x loads), Partition2D (dims 2, on a Grid2D) and
// Partition3D (dims 3, on a Grid3D) returned on seeded instances before
// one partitioner replaced them. The rows cover k = 1 axes, k equal to
// the extent, zero-weight rows, all-zero instances, 1×N strips, 1×1×N
// tubes and maxRounds 0–3; the last 2D and 3D rows stop refining on a
// round that keeps the bottleneck but would still move the cuts.
var partitionPins = []struct {
	dims       int
	x, y, z    int
	seed, maxW int64
	zeroRows   int
	k          [3]int
	rounds     int
	cuts       [3][]int
	bottleneck int64
}{
	{1, 1, 1, 1, 1, 10, 0, [3]int{1, 1, 1}, 0, [3][]int{nil, nil, nil}, 0},
	{1, 6, 1, 1, 2, 1, 0, [3]int{4, 1, 1}, 0, [3][]int{{6, 6, 6}, nil, nil}, 0},
	{1, 4, 1, 1, 3, 3, 0, [3]int{4, 1, 1}, 0, [3][]int{{1, 2, 3}, nil, nil}, 2},
	{1, 12, 1, 1, 4, 1000, 0, [3]int{1, 1, 1}, 0, [3][]int{nil, nil, nil}, 3992},
	{1, 12, 1, 1, 5, 1000, 0, [3]int{12, 1, 1}, 0, [3][]int{{2, 3, 4, 6, 8, 9, 11, 12, 12, 12, 12}, nil, nil}, 944},
	{1, 30, 1, 1, 6, 3, 0, [3]int{7, 1, 1}, 0, [3][]int{{5, 10, 18, 23, 27, 30}, nil, nil}, 5},
	{1, 9, 1, 1, 7, 2, 0, [3]int{5, 1, 1}, 0, [3][]int{{3, 5, 6, 8}, nil, nil}, 1},
	{1, 12, 1, 1, 649585, 2, 0, [3]int{12, 1, 1}, 0, [3][]int{{1, 2, 3, 8, 9, 11, 12, 12, 12, 12, 12}, nil, nil}, 1},
	{1, 39, 1, 1, 467587, 1, 0, [3]int{37, 1, 1}, 0, [3][]int{{39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39, 39}, nil, nil}, 0},
	{1, 32, 1, 1, 431596, 5, 0, [3]int{25, 1, 1}, 0, [3][]int{{6, 7, 8, 12, 13, 16, 17, 19, 22, 26, 27, 28, 29, 30, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32}, nil, nil}, 4},
	{1, 31, 1, 1, 222235, 1, 0, [3]int{10, 1, 1}, 0, [3][]int{{31, 31, 31, 31, 31, 31, 31, 31, 31}, nil, nil}, 0},
	{1, 31, 1, 1, 839572, 2, 0, [3]int{30, 1, 1}, 0, [3][]int{{5, 6, 9, 11, 12, 13, 14, 15, 16, 17, 18, 24, 26, 27, 28, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31}, nil, nil}, 1},
	{1, 8, 1, 1, 569229, 1000, 0, [3]int{4, 1, 1}, 0, [3][]int{{2, 4, 6}, nil, nil}, 1300},
	{1, 1, 1, 1, 872823, 1000, 0, [3]int{1, 1, 1}, 0, [3][]int{nil, nil, nil}, 813},
	{1, 4, 1, 1, 323923, 1, 0, [3]int{1, 1, 1}, 0, [3][]int{nil, nil, nil}, 0},
	{1, 31, 1, 1, 120464, 5, 0, [3]int{16, 1, 1}, 0, [3][]int{{2, 4, 5, 8, 9, 12, 15, 16, 18, 19, 21, 22, 25, 27, 29}, nil, nil}, 5},
	{1, 27, 1, 1, 641462, 5, 0, [3]int{1, 1, 1}, 0, [3][]int{nil, nil, nil}, 57},
	{1, 16, 1, 1, 32299, 5, 0, [3]int{1, 1, 1}, 0, [3][]int{nil, nil, nil}, 28},
	{1, 29, 1, 1, 453754, 5, 0, [3]int{5, 1, 1}, 0, [3][]int{{6, 13, 18, 28}, nil, nil}, 13},
	{1, 32, 1, 1, 1001457, 5, 0, [3]int{32, 1, 1}, 0, [3][]int{{2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15, 16, 17, 20, 21, 23, 24, 26, 28, 29, 31, 32, 32, 32, 32, 32, 32, 32, 32, 32}, nil, nil}, 4},
	{2, 1, 12, 1, 11, 10, 0, [3]int{1, 4, 1}, 0, [3][]int{nil, {2, 5, 7}, nil}, 18},
	{2, 12, 1, 1, 12, 10, 0, [3]int{4, 1, 1}, 1, [3][]int{{4, 7, 9}, nil, nil}, 16},
	{2, 1, 20, 1, 13, 50, 3, [3]int{1, 6, 1}, 2, [3][]int{nil, {6, 9, 11, 14, 17}, nil}, 78},
	{2, 3, 4, 1, 14, 7, 0, [3]int{3, 4, 1}, 0, [3][]int{{1, 2}, {1, 2, 3}, nil}, 6},
	{2, 8, 8, 1, 15, 16, 4, [3]int{3, 3, 1}, 0, [3][]int{{3, 5}, {6, 7}, nil}, 34},
	{2, 8, 8, 1, 16, 16, 4, [3]int{3, 3, 1}, 1, [3][]int{{3, 5}, {6, 7}, nil}, 42},
	{2, 8, 8, 1, 17, 16, 4, [3]int{3, 3, 1}, 2, [3][]int{{3, 6}, {5, 7}, nil}, 52},
	{2, 8, 8, 1, 18, 16, 4, [3]int{3, 3, 1}, 3, [3][]int{{2, 6}, {5, 6}, nil}, 43},
	{2, 6, 6, 1, 19, 1, 0, [3]int{2, 3, 1}, 0, [3][]int{{6}, {6, 6}, nil}, 0},
	{2, 10, 7, 1, 20, 100, 0, [3]int{1, 7, 1}, 3, [3][]int{nil, {1, 2, 3, 4, 5, 6}, nil}, 574},
	{2, 9, 5, 1, 21, 100, 0, [3]int{9, 1, 1}, 1, [3][]int{{1, 2, 3, 4, 6, 7, 8, 9}, nil, nil}, 325},
	{2, 12, 7, 1, 701919, 5, 6, [3]int{3, 3, 1}, 2, [3][]int{{6, 9}, {7, 7}, nil}, 9},
	{2, 6, 9, 1, 630151, 1, 6, [3]int{2, 2, 1}, 0, [3][]int{{6}, {9}, nil}, 0},
	{2, 2, 7, 1, 212776, 2, 1, [3]int{2, 5, 1}, 1, [3][]int{{1}, {5, 6, 7, 7}, nil}, 1},
	{2, 7, 7, 1, 952949, 2, 1, [3]int{1, 3, 1}, 0, [3][]int{nil, {4, 6}, nil}, 10},
	{2, 16, 10, 1, 573650, 20, 0, [3]int{1, 4, 1}, 3, [3][]int{nil, {3, 5, 7}, nil}, 486},
	{2, 10, 6, 1, 564852, 2, 5, [3]int{5, 2, 1}, 1, [3][]int{{3, 6, 7, 8}, {6}, nil}, 1},
	{2, 9, 12, 1, 153264, 1, 10, [3]int{4, 3, 1}, 0, [3][]int{{9, 9, 9}, {12, 12}, nil}, 0},
	{2, 2, 16, 1, 172706, 20, 4, [3]int{2, 4, 1}, 0, [3][]int{{1}, {7, 11, 13}, nil}, 33},
	{2, 16, 2, 1, 847196, 5, 0, [3]int{1, 1, 1}, 2, [3][]int{nil, nil, nil}, 54},
	{2, 12, 2, 1, 775569, 2, 1, [3]int{4, 1, 1}, 1, [3][]int{{5, 10, 12}, nil, nil}, 2},
	{2, 11, 14, 1, 40362, 2, 3, [3]int{1, 3, 1}, 2, [3][]int{nil, {6, 10}, nil}, 20},
	{2, 13, 12, 1, 232251, 2, 1, [3]int{4, 5, 1}, 0, [3][]int{{3, 6, 9}, {3, 6, 8, 11}, nil}, 6},
	{2, 12, 7, 1, 366705, 1, 3, [3]int{2, 3, 1}, 2, [3][]int{{12}, {7, 7}, nil}, 0},
	{2, 14, 4, 1, 958306, 1, 2, [3]int{3, 2, 1}, 2, [3][]int{{14, 14}, {4}, nil}, 0},
	{2, 12, 9, 1, 1013138, 1, 8, [3]int{1, 4, 1}, 2, [3][]int{nil, {9, 9, 9}, nil}, 0},
	{2, 14, 14, 1, 623335, 2, 2, [3]int{5, 5, 1}, 3, [3][]int{{4, 8, 11, 14}, {5, 8, 11, 14}, nil}, 6},
	{2, 14, 9, 1, 500206, 1000, 4, [3]int{1, 1, 1}, 3, [3][]int{nil, nil, nil}, 35729},
	{2, 10, 3, 1, 868987, 1000, 2, [3]int{4, 1, 1}, 3, [3][]int{{2, 5, 8}, nil, nil}, 1710},
	{2, 10, 15, 1, 933289, 1000, 6, [3]int{3, 3, 1}, 2, [3][]int{{3, 6}, {9, 12}, nil}, 6722},
	{2, 15, 16, 1, 283047, 1, 2, [3]int{2, 1, 1}, 0, [3][]int{{15}, nil, nil}, 0},
	{2, 8, 16, 1, 474168, 5, 7, [3]int{4, 2, 1}, 2, [3][]int{{2, 3, 6}, {11}, nil}, 20},
	{2, 4, 12, 1, 339448, 20, 4, [3]int{1, 1, 1}, 1, [3][]int{nil, nil, nil}, 231},
	{2, 4, 1, 1, 534088, 1000, 0, [3]int{2, 1, 1}, 2, [3][]int{{2}, nil, nil}, 1548},
	{2, 7, 10, 1, 655453, 1, 2, [3]int{1, 3, 1}, 0, [3][]int{nil, {10, 10}, nil}, 0},
	{2, 14, 16, 1, 256095, 1000, 8, [3]int{3, 5, 1}, 3, [3][]int{{5, 9}, {10, 11, 12, 14}, nil}, 5595},
	{2, 15, 12, 1, 497329, 2, 1, [3]int{5, 5, 1}, 2, [3][]int{{3, 6, 9, 12}, {3, 7, 9, 12}, nil}, 5},
	{3, 1, 1, 9, 31, 2, 0, [3]int{1, 1, 3}, 0, [3][]int{nil, nil, {4, 6}}, 2},
	{3, 1, 1, 15, 32, 40, 0, [3]int{1, 1, 4}, 2, [3][]int{nil, nil, {4, 9, 12}}, 82},
	{3, 4, 4, 3, 33, 9, 2, [3]int{2, 2, 3}, 0, [3][]int{{2}, {3}, {1, 2}}, 12},
	{3, 6, 6, 6, 34, 20, 0, [3]int{2, 2, 2}, 1, [3][]int{{3}, {3}, {3}}, 329},
	{3, 6, 6, 6, 35, 20, 3, [3]int{2, 2, 2}, 3, [3][]int{{3}, {5}, {3}}, 205},
	{3, 2, 2, 2, 36, 5, 0, [3]int{2, 2, 2}, 0, [3][]int{{1}, {2}, {1}}, 4},
	{3, 5, 4, 1, 37, 30, 0, [3]int{3, 2, 1}, 2, [3][]int{{1, 3}, {2}, nil}, 65},
	{3, 7, 3, 5, 38, 1, 0, [3]int{3, 2, 4}, 0, [3][]int{{7, 7}, {3}, {5, 5, 5}}, 0},
	{3, 8, 3, 3, 440143, 5, 2, [3]int{2, 1, 2}, 0, [3][]int{{4}, nil, {1}}, 21},
	{3, 8, 3, 3, 877728, 1, 1, [3]int{1, 2, 3}, 1, [3][]int{nil, {3}, {3, 3}}, 0},
	{3, 8, 4, 4, 60828, 5, 1, [3]int{1, 2, 2}, 2, [3][]int{nil, {2}, {2}}, 71},
	{3, 3, 6, 1, 787097, 2, 1, [3]int{3, 2, 1}, 3, [3][]int{{2, 3}, {4}, nil}, 3},
	{3, 1, 1, 8, 958657, 1000, 0, [3]int{1, 1, 2}, 3, [3][]int{nil, nil, {4}}, 2792},
	{3, 7, 2, 3, 131514, 1000, 0, [3]int{1, 1, 3}, 0, [3][]int{nil, nil, {1, 2}}, 7406},
	{3, 4, 3, 2, 879537, 1, 2, [3]int{3, 1, 1}, 0, [3][]int{{4, 4}, nil, nil}, 0},
	{3, 1, 5, 5, 1044740, 1, 2, [3]int{1, 2, 3}, 0, [3][]int{nil, {5}, {5, 5}}, 0},
	{3, 2, 5, 2, 1003718, 1000, 3, [3]int{2, 3, 2}, 0, [3][]int{{1}, {4, 5}, {1}}, 973},
	{3, 2, 8, 2, 838142, 2, 3, [3]int{2, 3, 2}, 0, [3][]int{{1}, {5, 6}, {1}}, 1},
	{3, 6, 4, 2, 430949, 1000, 0, [3]int{2, 1, 2}, 2, [3][]int{{4}, nil, {1}}, 6552},
	{3, 2, 1, 5, 4801, 5, 0, [3]int{1, 1, 3}, 0, [3][]int{nil, nil, {2, 4}}, 9},
	{3, 7, 3, 5, 424191, 1000, 1, [3]int{1, 2, 2}, 0, [3][]int{nil, {2}, {3}}, 11122},
	{3, 3, 8, 5, 288829, 2, 7, [3]int{3, 1, 2}, 1, [3][]int{{1, 3}, nil, {3}}, 2},
	{3, 8, 7, 7, 37361, 1, 4, [3]int{3, 2, 1}, 0, [3][]int{{8, 8}, {7}, nil}, 0},
	{3, 6, 1, 8, 297954, 2, 0, [3]int{3, 1, 1}, 1, [3][]int{{1, 4}, nil, nil}, 8},
	{3, 5, 4, 5, 474146, 5, 1, [3]int{3, 3, 2}, 2, [3][]int{{2, 3}, {2, 3}, {2}}, 13},
	{3, 8, 1, 8, 156259, 1, 0, [3]int{1, 1, 2}, 1, [3][]int{nil, nil, {8}}, 0},
	{3, 2, 2, 2, 648124, 5, 0, [3]int{2, 2, 1}, 1, [3][]int{{1}, {1}, nil}, 5},
	{3, 2, 1, 2, 189599, 2, 0, [3]int{2, 1, 2}, 2, [3][]int{{1}, nil, {1}}, 1},
	{3, 6, 7, 2, 286623, 2, 1, [3]int{3, 3, 2}, 0, [3][]int{{2, 5}, {3, 5}, {1}}, 5},
}

// TestPartitionPins: the shared partitioner reproduces every pinned row,
// and a 9-pt grid partitions as the one-layer Grid3D of its weights.
func TestPartitionPins(t *testing.T) {
	for _, p := range partitionPins {
		w := pinWeights(p.x, p.y, p.z, p.seed, p.maxW, p.zeroRows)
		var cuts [3][]int
		var b int64
		var err error
		switch p.dims {
		case 1:
			cuts[0], b, err = Partition1D(w, p.k[0])
		case 2:
			g, gerr := grid.FromWeights2D(p.x, p.y, w)
			if gerr != nil {
				t.Fatal(gerr)
			}
			cuts, b, err = Partition(g, p.k, p.rounds)
			g3, gerr := grid.FromWeights3D(p.x, p.y, 1, w)
			if gerr != nil {
				t.Fatal(gerr)
			}
			cuts3, b3, err3 := Partition(g3, p.k, p.rounds)
			if err3 != nil || b3 != b || !equalCuts(cuts3, cuts) {
				t.Errorf("%+v: one-layer Grid3D gives %v %d %v, Grid2D %v %d", p, cuts3, b3, err3, cuts, b)
			}
		case 3:
			g, gerr := grid.FromWeights3D(p.x, p.y, p.z, w)
			if gerr != nil {
				t.Fatal(gerr)
			}
			cuts, b, err = Partition(g, p.k, p.rounds)
		}
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if b != p.bottleneck || !equalCuts(cuts, p.cuts) {
			t.Errorf("%dD %dx%dx%d seed %d k %v rounds %d: cuts %v bottleneck %d, pinned %v %d",
				p.dims, p.x, p.y, p.z, p.seed, p.k, p.rounds, cuts, b, p.cuts, p.bottleneck)
		}
	}
}

func equalCuts(a, b [3][]int) bool {
	return slices.Equal(a[0], b[0]) && slices.Equal(a[1], b[1]) && slices.Equal(a[2], b[2])
}
