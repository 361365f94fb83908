package core

import (
	"math/rand"
	"testing"
)

// TestScanUniformWeight pins the verdict on the edge shapes: empty,
// zero-weight, single-vertex, uniform, and mixed graphs.
func TestScanUniformWeight(t *testing.T) {
	cases := []struct {
		name    string
		weights []int64
		wantW   int64
		wantOK  bool
	}{
		{"empty", nil, 0, false},
		{"single", []int64{7}, 7, true},
		{"uniform", []int64{3, 3, 3, 3}, 3, true},
		{"mixed", []int64{3, 3, 4}, 0, false},
		{"zero", []int64{0, 0}, 0, false},
		{"zero-among", []int64{2, 0, 2}, 0, false},
	}
	for _, c := range cases {
		g := MustCSRGraph(c.weights, nil)
		w, ok := ScanUniformWeight(g)
		if w != c.wantW || ok != c.wantOK {
			t.Errorf("%s: ScanUniformWeight = (%d, %v), want (%d, %v)",
				c.name, w, ok, c.wantW, c.wantOK)
		}
	}
}

// TestCSRUniformWeightCache: the verdict is computed at construction,
// invalidated by SetWeight, and recomputed lazily — in both directions
// (uniform -> mixed and mixed -> uniform).
func TestCSRUniformWeightCache(t *testing.T) {
	g := MustCSRGraph([]int64{5, 5, 5}, []Edge{{0, 1}, {1, 2}})
	if w, ok := g.UniformWeight(); !ok || w != 5 {
		t.Fatalf("constructed uniform graph: UniformWeight = (%d, %v), want (5, true)", w, ok)
	}
	g.SetWeight(1, 9)
	if w, ok := g.UniformWeight(); ok {
		t.Fatalf("after SetWeight(1, 9): UniformWeight = (%d, %v), want not uniform", w, ok)
	}
	g.SetWeight(1, 5)
	if w, ok := g.UniformWeight(); !ok || w != 5 {
		t.Fatalf("after restoring: UniformWeight = (%d, %v), want (5, true)", w, ok)
	}
}

// TestUniformWeightInterfacePrecedence: an explicit UniformWeighter
// opt-out wins over the weight scan — this is what the equivalence
// tests use to force the v1 interval kernel on uniform instances.
func TestUniformWeightInterfacePrecedence(t *testing.T) {
	g := MustCSRGraph([]int64{4, 4}, []Edge{{0, 1}})
	if w, ok := UniformWeight(hideUniform{g}); ok || w != 0 {
		t.Errorf("opted-out graph still reported uniform (%d, %v)", w, ok)
	}
	if w, ok := UniformWeight(g); !ok || w != 4 {
		t.Errorf("plain graph: UniformWeight = (%d, %v), want (4, true)", w, ok)
	}
}

// hideUniform wraps a graph and opts out of the uniform-weight fast
// path regardless of the actual weights.
type hideUniform struct{ Graph }

func (hideUniform) UniformWeight() (int64, bool) { return 0, false }

// TestFreeMapSpill: occupancy beyond one word spills into the next —
// occupying slots 0..63 places the first free slot at 64, and a hole
// anywhere below is found first.
func TestFreeMapSpill(t *testing.T) {
	var f freeMap
	for s := int64(0); s < 64; s++ {
		f.set(s)
	}
	if got := f.firstFree(); got != 64 {
		t.Errorf("full first word: firstFree = %d, want 64", got)
	}
	var g freeMap
	for s := int64(0); s < 200; s++ {
		if s != 130 {
			g.set(s)
		}
	}
	if got := g.firstFree(); got != 130 {
		t.Errorf("hole at 130: firstFree = %d, want 130", got)
	}
	var h freeMap
	for s := int64(0); s < freeMapSlots; s++ {
		h.set(s)
	}
	if got := h.firstFree(); got != freeMapSlots {
		t.Errorf("saturated map: firstFree = %d, want %d", got, freeMapSlots)
	}
}

// uniformStar binds a kernel to a star whose center 0 and leaves
// 1..len(occ) all weigh w, with leaf i+1 colored at occ[i].Start
// (Unset stays uncolored). Placing the center runs the kernel against
// exactly occ.
func uniformStar(occ []Interval, w int64) (*FitScratch, Coloring) {
	weights := make([]int64, len(occ)+1)
	edges := make([]Edge, len(occ))
	c := NewColoring(len(weights))
	for i, iv := range occ {
		edges[i] = Edge{U: 0, V: i + 1}
		c.Start[i+1] = iv.Start
	}
	for v := range weights {
		weights[v] = w
	}
	var s FitScratch
	s.Bind(MustCSRGraph(weights, edges))
	return &s, c
}

// placeSlots runs the kernel's uniform rung alone on occ, whose
// intervals must all have width w.
func placeSlots(occ []Interval, w int64) (int64, bool) {
	s, c := uniformStar(occ, w)
	return s.placeSlots(c.Start, 0, s.Neighbors(0))
}

// TestLowestFitUniformRefusals: the kernel's uniform rung must report
// false — never a wrong answer — on occupancies it cannot represent
// (starts that are not multiples of w, occupancies that could overflow
// the map), and the full kernel must then still place correctly.
func TestLowestFitUniformRefusals(t *testing.T) {
	odd := []Interval{{Start: 3, End: 5}}
	if _, ok := placeSlots(odd, 2); ok {
		t.Error("non-multiple start was not refused")
	}
	big := make([]Interval, freeMapSlots)
	for i := range big {
		big[i] = Interval{Start: int64(i) * 2, End: int64(i)*2 + 2}
	}
	if _, ok := placeSlots(big, 2); ok {
		t.Error("map-overflowing occupancy was not refused")
	}
	for _, occ := range [][]Interval{odd, big} {
		s, c := uniformStar(occ, 2)
		if got, want := s.PlaceLowest(s.g, c, 0, -1), bruteLowestFit(occ, 2); got != want {
			t.Errorf("after a refusal: placed at %d, want %d", got, want)
		}
	}
	// Zero width never reaches the rung (a uniform verdict needs w > 0);
	// the kernel places it at 0.
	if s, c := uniformStar([]Interval{{Start: 2, End: 2}}, 0); s.uniW != 0 || s.PlaceLowest(s.g, c, 0, -1) != 0 {
		t.Errorf("zero width: uniW = %d, placed at %d, want 0 and 0", s.uniW, s.PlaceLowest(s.g, c, 0, -1))
	}
	// Uncolored neighbors are ignored, exactly like the interval rungs.
	if s, ok := placeSlots([]Interval{{Start: Unset}, {Start: 0, End: 2}}, 2); !ok || s != 2 {
		t.Errorf("uncolored neighbor not ignored: got (%d, %v), want (2, true)", s, ok)
	}
}

// fitColors runs the color rung alone, as Fit does for a vertex of
// weight w: a zero width fits at 0 without a map, else the map marks
// occ and answers, or reports false when occ reaches past it.
func fitColors(occ []Interval, w int64) (int64, bool) {
	if w <= 0 {
		return 0, true
	}
	var m ColorMap
	return m.fit(occ, w)
}

// inColorMap reports whether the color map must answer occ: every
// interval that holds a non-negative color ends by freeMapSlots.
func inColorMap(occ []Interval) bool {
	for _, iv := range occ {
		if iv.End > max(iv.Start, 0) && iv.End > freeMapSlots {
			return false
		}
	}
	return true
}

// kernelFit runs the kernel's interval-rung dispatch, FitScratch.Fit, on
// a copy of occ for a vertex of weight w.
func kernelFit(occ []Interval, w int64) int64 {
	var s FitScratch
	s.Bind(MustCSRGraph([]int64{w}, nil))
	return s.Fit(append([]Interval{}, occ...), 0)
}

// TestFitColorsEdges pins the color map at its word boundaries, at its
// 256-color reach, where it must hand the list to the streaming scan,
// and on the intervals it skips or clips; every rung and the kernel's
// dispatch must agree with the reference on each case.
func TestFitColorsEdges(t *testing.T) {
	cases := []struct {
		name  string
		occ   []Interval
		w     int64
		want  int64
		inMap bool
	}{
		{"ends at 63", []Interval{{0, 63}}, 1, 63, true},
		{"ends at 64", []Interval{{0, 64}}, 1, 64, true},
		{"ends at 65", []Interval{{0, 65}}, 1, 65, true},
		{"gap below a word edge", []Interval{{0, 60}, {64, 70}}, 4, 60, true},
		{"gap across a word edge", []Interval{{0, 62}, {66, 80}}, 4, 62, true},
		{"gap one short", []Interval{{0, 62}, {66, 80}}, 5, 80, true},
		{"ends at 127", []Interval{{10, 127}}, 11, 127, true},
		{"ends at 128", []Interval{{0, 128}}, 1, 128, true},
		{"ends at 255", []Interval{{0, 255}}, 1, 255, true},
		{"ends at 256", []Interval{{0, 256}}, 1, 256, true},
		{"ends at 257", []Interval{{0, 257}}, 1, 257, false},
		{"starts at 256", []Interval{{256, 260}}, 256, 0, false},
		{"starts at 256, w past it", []Interval{{256, 260}}, 257, 260, false},
		{"register and map words meet", []Interval{{0, 30}, {40, 100}}, 11, 100, true},
		{"spans three words", []Interval{{50, 150}}, 51, 150, true},
		{"three-word gap fits", []Interval{{0, 10}, {150, 200}}, 140, 10, true},
		{"spans four words", []Interval{{1, 255}}, 2, 255, true},
		{"w past 64", []Interval{{0, 10}, {80, 90}}, 71, 90, true},
		{"w past 256", []Interval{{0, 10}, {20, 30}}, 300, 30, true},
		{"past the map stops the pass", []Interval{{0, 10}, {250, 300}, {10, 20}}, 5, 20, false},
		{"zero-width intervals", []Interval{{5, 5}, {0, 3}, {300, 300}}, 2, 3, true},
		{"zero-width at 256", []Interval{{256, 256}, {0, 4}}, 1, 4, true},
		{"inverted interval", []Interval{{10, 4}}, 5, 0, true},
		{"negative start", []Interval{{-5, 3}}, 1, 3, true},
		{"w = 0", []Interval{{0, 10}}, 0, 0, true},
		{"w = 0 past the map", []Interval{{0, 300}}, 0, 0, true},
		{"no intervals", nil, 300, 0, true},
	}
	for _, tc := range cases {
		if ref := bruteLowestFit(tc.occ, tc.w); ref != tc.want {
			t.Fatalf("%s: the case expects %d, the reference says %d", tc.name, tc.want, ref)
		}
		if got, ok := fitColors(tc.occ, tc.w); ok != tc.inMap || ok && got != tc.want {
			t.Errorf("%s: fitColors = (%d, %v), want (%d, %v)", tc.name, got, ok, tc.want, tc.inMap)
		}
		if got := LowestFitStream(tc.occ, tc.w); got != tc.want {
			t.Errorf("%s: LowestFitStream = %d, want %d", tc.name, got, tc.want)
		}
		if got := LowestFit(append([]Interval{}, tc.occ...), tc.w); got != tc.want {
			t.Errorf("%s: LowestFit = %d, want %d", tc.name, got, tc.want)
		}
		if got := kernelFit(tc.occ, tc.w); got != tc.want {
			t.Errorf("%s: FitScratch.Fit = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestKernelsAgreeRandom hammers the rungs and the kernel's dispatch
// against the brute reference on random occupancies, both general and
// uniform-shaped. Trials cycle through three shapes: ends in the color
// map's first word; ends across all four words, now and then past the
// map; and starts up to 300 with widths and w up to 299, mostly past
// it. Lists run to 40 intervals, past the sort rung's threshold.
func TestKernelsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [...]struct{ start, width, w int }{{50, 6, 7}, {190, 70, 70}, {301, 300, 300}}
	for trial := 0; trial < 5000; trial++ {
		sh := shapes[trial%len(shapes)]
		n := rng.Intn(41)
		w := int64(rng.Intn(sh.w))
		occ := make([]Interval, n)
		for i := range occ {
			occ[i] = NewInterval(int64(rng.Intn(sh.start)), int64(rng.Intn(sh.width)))
		}
		want := bruteLowestFit(occ, w)
		if got := LowestFitStream(occ, w); got != want {
			t.Fatalf("trial %d: LowestFitStream(%v, %d) = %d, want %d", trial, occ, w, got, want)
		}
		if got, ok := fitColors(occ, w); ok != (w <= 0 || inColorMap(occ)) || ok && got != want {
			t.Fatalf("trial %d: fitColors(%v, %d) = (%d, %v), want %d", trial, occ, w, got, ok, want)
		}
		if got := kernelFit(occ, w); got != want {
			t.Fatalf("trial %d: FitScratch.Fit(%v, %d) = %d, want %d", trial, occ, w, got, want)
		}
		if got := LowestFit(append([]Interval{}, occ...), w); got != want {
			t.Fatalf("trial %d: LowestFit(%v, %d) = %d, want %d", trial, occ, w, got, want)
		}
		// Split the list into a marked part and an extra part, as SGK's
		// search does: FitMap answers when the extra part stays inside
		// the map, tallies the whole list and leaves the map unchanged.
		k := rng.Intn(n + 1)
		var m ColorMap
		if m.Mark(occ[:k]) {
			kept := m
			var s FitScratch
			s.Bind(MustCSRGraph([]int64{w}, nil))
			got, ok := s.FitMap(&m, occ[k:], 0)
			if ok != inColorMap(occ[k:]) || ok && got != want || m != kept {
				t.Fatalf("trial %d: FitMap(%v + %v, %d) = (%d, %v), want %d", trial, occ[:k], occ[k:], w, got, ok, want)
			}
			var st Stats
			s.Flush(&SolveOptions{Stats: &st})
			if wantN := int64(n); ok && (st.Placements() != 1 || st.Probes() != wantN) || !ok && st.Placements() != 0 {
				t.Fatalf("trial %d: FitMap tallied %d placements against %d intervals, want 1 against %d", trial, st.Placements(), st.Probes(), wantN)
			}
		}
		if w > 0 {
			uocc := make([]Interval, n)
			for i := range uocc {
				uocc[i] = NewInterval(int64(rng.Intn(30))*w, w)
			}
			ugot, ok := placeSlots(uocc, w)
			if !ok {
				t.Fatalf("trial %d: the uniform rung refused %v (w=%d)", trial, uocc, w)
			}
			if uwant := bruteLowestFit(uocc, w); ugot != uwant {
				t.Fatalf("trial %d: uniform rung on (%v, %d) = %d, want %d", trial, uocc, w, ugot, uwant)
			}
		}
	}
}

// TestLowestFitStreamDescending pins the streaming kernel's worst case
// (starts strictly descending, maximally chained) for correctness.
func TestLowestFitStreamDescending(t *testing.T) {
	occ := make([]Interval, 26)
	for i := range occ {
		s := int64(25-i) * 2
		occ[i] = Interval{Start: s, End: s + 2}
	}
	if got := LowestFitStream(occ, 2); got != 52 {
		t.Errorf("descending chain: got %d, want 52", got)
	}
}

// TestV2KernelsNoAllocs pins the zero-allocation contract of the
// streaming scan, the color map and the uniform rung.
func TestV2KernelsNoAllocs(t *testing.T) {
	occ := []Interval{{Start: 4, End: 6}, {Start: 0, End: 2}, {Start: 8, End: 10}}
	if n := testing.AllocsPerRun(100, func() {
		LowestFitStream(occ, 2)
	}); n != 0 {
		t.Errorf("LowestFitStream allocates %v/op, want 0", n)
	}
	wide := []Interval{{Start: 0, End: 60}, {Start: 70, End: 200}, {Start: 100, End: 256}}
	if n := testing.AllocsPerRun(100, func() {
		fitColors(wide, 9)
	}); n != 0 {
		t.Errorf("the color map allocates %v/op, want 0", n)
	}
	s, c := uniformStar(occ, 2)
	if n := testing.AllocsPerRun(100, func() {
		s.placeSlots(c.Start, 0, s.Neighbors(0))
	}); n != 0 {
		t.Errorf("the uniform rung allocates %v/op, want 0", n)
	}
}

// TestGreedyColorKernelEquivalence: greedy colorings through the v2
// dispatch (uniform free-map, color map or streaming scan) are
// byte-identical to colorings forced through the interval rungs, on
// uniform and mixed weights alike.
func TestGreedyColorKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 30 + rng.Intn(40)
		weights := make([]int64, n)
		uniform := trial%2 == 0
		for v := range weights {
			if uniform {
				weights[v] = int64(trial%5) + 1
			} else {
				weights[v] = rng.Int63n(6)
			}
		}
		var edges []Edge
		for u := 0; u < n; u++ {
			for d := 1; d <= 3; d++ {
				if v := u + d; v < n && rng.Intn(2) == 0 {
					edges = append(edges, Edge{u, v})
				}
			}
		}
		g := MustCSRGraph(weights, edges)
		order := rng.Perm(n)
		v2, err := GreedyColor(g, order)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := GreedyColor(hideUniform{g}, order)
		if err != nil {
			t.Fatal(err)
		}
		for v := range v1.Start {
			if v1.Start[v] != v2.Start[v] {
				t.Fatalf("trial %d (uniform=%v): vertex %d colored %d by v1, %d by v2",
					trial, uniform, v, v1.Start[v], v2.Start[v])
			}
		}
	}
}
