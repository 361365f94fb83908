package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stencilivc/internal/obsv"
)

func TestLowestFitBasics(t *testing.T) {
	cases := []struct {
		occ  []Interval
		w    int64
		want int64
	}{
		{nil, 5, 0},
		{[]Interval{{0, 3}}, 2, 3},
		{[]Interval{{2, 5}}, 2, 0},
		{[]Interval{{2, 5}}, 3, 5},         // gap [0,2) too small
		{[]Interval{{0, 2}, {4, 6}}, 2, 2}, // exact gap
		{[]Interval{{0, 2}, {3, 6}}, 2, 6}, // gap of 1 skipped
		{[]Interval{{4, 6}, {0, 2}}, 2, 2}, // unsorted input
		{[]Interval{{0, 4}, {2, 6}}, 1, 6}, // overlapping occupation
		{[]Interval{{0, 3}, {3, 3}}, 1, 3}, // empty interval ignored
		{[]Interval{{5, 9}}, 0, 0},         // zero width fits anywhere
		{[]Interval{{0, 1}, {1, 2}, {2, 3}}, 1, 3},
	}
	for i, tc := range cases {
		occ := append([]Interval{}, tc.occ...)
		if got := LowestFit(occ, tc.w); got != tc.want {
			t.Errorf("case %d: LowestFit(%v, %d) = %d, want %d",
				i, tc.occ, tc.w, got, tc.want)
		}
	}
}

// bruteLowestFit scans start values one by one; reference implementation.
func bruteLowestFit(occ []Interval, w int64) int64 {
	if w <= 0 {
		return 0
	}
	for s := int64(0); ; s++ {
		cand := NewInterval(s, w)
		ok := true
		for _, iv := range occ {
			if cand.Overlaps(iv) {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
}

func TestLowestFitMatchesBruteForceQuick(t *testing.T) {
	f := func(seed int64, n uint8, w uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		occ := make([]Interval, int(n)%8)
		for i := range occ {
			s := rng.Int63n(20)
			occ[i] = NewInterval(s, rng.Int63n(6))
		}
		width := int64(w % 7)
		got := LowestFit(append([]Interval{}, occ...), width)
		want := bruteLowestFit(occ, width)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestGreedyColorValid(t *testing.T) {
	g := Clique([]int64{3, 1, 4, 1, 5})
	order := []int{0, 1, 2, 3, 4}
	c, err := GreedyColor(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	// A clique greedy coloring in any order is optimal: sum of weights.
	if mc := c.MaxColor(g); mc != 14 {
		t.Errorf("clique greedy MaxColor = %d, want 14", mc)
	}
}

func TestGreedyColorOrderMatters(t *testing.T) {
	// Chain 1-2-3 with weights 1,10,1: any order yields max 11 here, but
	// greedy must at least be valid and within the Lemma 7 bound.
	g := Chain([]int64{1, 10, 1})
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		c, err := GreedyColor(g, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

func TestGreedyColorRejectsBadOrder(t *testing.T) {
	g := Chain([]int64{1, 1})
	if _, err := GreedyColor(g, []int{0}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := GreedyColor(g, []int{0, 0}); err == nil {
		t.Error("repeated vertex accepted")
	}
	if _, err := GreedyColor(g, []int{0, 5}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

// Lemma 7: greedy colors v with an interval ending at most at
// sum_{j in N(v)} w(j) + (deg(v)+1)*w(v) - deg(v).
func TestGreedyLemma7Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = rng.Int63n(9) + 1
		}
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, Edge{i, j})
				}
			}
		}
		g := MustCSRGraph(weights, edges)
		order := rng.Perm(n)
		c, err := GreedyColor(g, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		var buf []int
		for v := 0; v < n; v++ {
			buf = g.Neighbors(v, buf[:0])
			var nbrSum int64
			for _, u := range buf {
				nbrSum += g.Weight(u)
			}
			d := int64(len(buf))
			bound := nbrSum + (d+1)*g.Weight(v) - d
			if end := c.Start[v] + g.Weight(v); end > bound {
				t.Fatalf("Lemma 7 violated: vertex %d ends at %d > bound %d", v, end, bound)
			}
		}
	}
}

func TestPlaceLowestSkip(t *testing.T) {
	g := Chain([]int64{2, 2, 2})
	c := NewColoring(3)
	c.Start[0], c.Start[1], c.Start[2] = 0, 2, 0
	var s FitScratch
	// Recoloring vertex 1 while skipping vertex 0 sees only vertex 2's
	// interval [0,2) and therefore lands at 2.
	if got := s.PlaceLowest(g, c, 1, 0); got != 2 {
		t.Errorf("PlaceLowest skip=0 -> %d, want 2", got)
	}
	// Without skipping, both neighbors occupy [0,2) so the answer is 2 too;
	// skip vertex 2 instead and vertex 0 still blocks [0,2).
	if got := s.PlaceLowest(g, c, 1, 2); got != 2 {
		t.Errorf("PlaceLowest skip=2 -> %d, want 2", got)
	}
}

// TestFlushTallies: Flush hands the kernel's per-solve tallies to both
// sinks — one placement per Place, one probe per occupied neighbor
// interval, one occupancy observation per Place — including lists
// longer than the exact tally, which must land in the histogram's +Inf
// bucket with their exact sum. A second flush adds nothing.
func TestFlushTallies(t *testing.T) {
	sm := obsv.NewSolveMetrics(obsv.NewRegistry())
	bounds := sm.OccLen.Buckets()
	if last := bounds[len(bounds)-2].UpperBound; last >= occTallyLen {
		t.Fatalf("the occupancy histogram resolves %v > %d, the exact tally's reach", last, occTallyLen-1)
	}
	// A star whose 40 leaves are all colored, plus a chain vertex with
	// one colored neighbor: 40 probes and 1 probe.
	const leaves = 40
	weights := make([]int64, leaves+3)
	edges := []Edge{{U: leaves + 1, V: leaves + 2}}
	c := NewColoring(len(weights))
	for v := range weights {
		weights[v] = int64(1 + v%3)
	}
	for i := 1; i <= leaves; i++ {
		edges = append(edges, Edge{U: 0, V: i})
		c.Start[i] = int64(i)
	}
	c.Start[leaves+2] = 0
	g := MustCSRGraph(weights, edges)
	var s FitScratch
	for range 3 {
		s.PlaceLowest(g, c, 0, -1)
	}
	s.PlaceLowest(g, c, leaves+1, -1)
	s.AddPlacements(5)
	var st Stats
	opts := &SolveOptions{Stats: &st, Metrics: sm}
	s.Flush(opts)
	s.Flush(opts)
	if st.Placements() != 9 || sm.Vertices.Value() != 9 {
		t.Errorf("placements: stats %d, metrics %d, want 9", st.Placements(), sm.Vertices.Value())
	}
	if want := int64(3*leaves + 1); st.Probes() != want || sm.Probes.Value() != want || sm.OccLen.Sum() != float64(want) {
		t.Errorf("probes: stats %d, metrics %d, histogram sum %g, want %d",
			st.Probes(), sm.Probes.Value(), sm.OccLen.Sum(), want)
	}
	b := sm.OccLen.Buckets()
	if got := b[len(b)-1].CumulativeCount - b[len(b)-2].CumulativeCount; got != 3 || sm.OccLen.Count() != 4 {
		t.Errorf("occupancy histogram: %d long lists of %d, want 3 of 4", got, sm.OccLen.Count())
	}
}

func TestCheckPermutation(t *testing.T) {
	if err := CheckPermutation([]int{2, 0, 1}, 3); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := CheckPermutation([]int{0, 1}, 3); err == nil {
		t.Error("short permutation accepted")
	}
	if err := CheckPermutation([]int{0, 1, 1}, 3); err == nil {
		t.Error("repeat accepted")
	}
	if err := CheckPermutation([]int{0, 1, -1}, 3); err == nil {
		t.Error("negative accepted")
	}
}
