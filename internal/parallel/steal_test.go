package parallel

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// TestWSRangePop: the owner claims indices in ascending order and
// reports empty exactly when the range is drained.
func TestWSRangePop(t *testing.T) {
	var q wsRange
	q.reset(3, 6)
	for want := 3; want < 6; want++ {
		i, ok := q.pop()
		if !ok || i != want {
			t.Fatalf("pop = (%d, %v), want (%d, true)", i, ok, want)
		}
	}
	if i, ok := q.pop(); ok {
		t.Fatalf("pop on empty = (%d, %v), want empty", i, ok)
	}
}

// TestWSRangeStealHalf: a thief takes the upper half (at least one
// index), the victim keeps the contiguous lower prefix, and an empty
// deque refuses.
func TestWSRangeStealHalf(t *testing.T) {
	var q wsRange
	q.reset(0, 10)
	lo, hi, ok := q.stealHalf()
	if !ok || lo != 5 || hi != 10 {
		t.Fatalf("stealHalf of [0,10) = [%d,%d) ok=%v, want [5,10)", lo, hi, ok)
	}
	// Victim's remainder is [0,5).
	if i, ok := q.pop(); !ok || i != 0 {
		t.Fatalf("victim pop = (%d, %v), want (0, true)", i, ok)
	}
	// A single-index range is stolen whole.
	var s wsRange
	s.reset(7, 8)
	if lo, hi, ok := s.stealHalf(); !ok || lo != 7 || hi != 8 {
		t.Fatalf("stealHalf of [7,8) = [%d,%d) ok=%v, want [7,8)", lo, hi, ok)
	}
	if _, _, ok := s.stealHalf(); ok {
		t.Fatal("stealHalf on empty deque succeeded")
	}
}

// TestWSRangeConcurrent hammers one deque with one owner and many
// thieves under the race detector: every index must be claimed exactly
// once, whether by pop or by steal.
func TestWSRangeConcurrent(t *testing.T) {
	const n = 4096
	var q wsRange
	q.reset(0, n)
	claimed := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // owner
		defer wg.Done()
		for {
			i, ok := q.pop()
			if !ok {
				return
			}
			claimed[i].Add(1)
		}
	}()
	for k := 0; k < 3; k++ { // thieves
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := q.stealHalf()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					claimed[i].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range claimed {
		if got := claimed[i].Load(); got != 1 {
			t.Fatalf("index %d claimed %d times, want exactly once", i, got)
		}
	}
}

// TestForEachCoversAllIndices: the work-stealing forEach visits every
// index exactly once at every parallelism level, including n < par and
// n not divisible by par.
func TestForEachCoversAllIndices(t *testing.T) {
	g := rand2D(t, 8, 8, 5, 21)
	tl, err := g.Tiling(1) // 64 tiles: room for every worker count below
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{1, 2, 13, 64, 100} {
			r := newRun(g, tl, Config{}, &core.SolveOptions{Parallelism: par})
			hits := make([]atomic.Int32, n)
			if err := r.forEach(n, func(_ *scratch, i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("par=%d n=%d: %v", par, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("par=%d n=%d: index %d visited %d times", par, n, i, got)
				}
			}
		}
	}
}

// TestStealCounterFlushed: the solve's one flush adds every worker's
// steal count into the ivc_tile_steals_total counter and every worker's
// placements into the vertex counter.
func TestStealCounterFlushed(t *testing.T) {
	reg := obsv.NewRegistry()
	sm := obsv.NewSolveMetrics(reg)
	g := rand2D(t, 4, 4, 3, 5)
	tl, err := g.Tiling(2)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(g, tl, Config{}, &core.SolveOptions{Parallelism: 2, Metrics: sm})
	if len(r.workers) != 2 {
		t.Fatalf("%d worker scratches, want 2", len(r.workers))
	}
	r.workers[0].steals = 3
	r.workers[0].fit.AddPlacements(7)
	r.workers[1].steals = 2
	r.workers[1].fit.AddPlacements(4)
	r.flush()
	if got := sm.Steals.Value(); got != 5 {
		t.Errorf("Steals = %d, want 5", got)
	}
	if got := sm.Vertices.Value(); got != 11 {
		t.Errorf("Vertices = %d, want 11", got)
	}
}

// TestTileOrderNoAllocs pins the allocation-free OrderWeightDesc sort:
// after the verts buffer has grown once, re-sorting a tile allocates
// nothing (the reflect-based sort.Slice it replaced allocated its
// swapper every call).
func TestTileOrderNoAllocs(t *testing.T) {
	g := rand2D(t, 32, 32, 9, 13)
	tl, err := g.Tiling(8)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{s: g, cfg: Config{Order: OrderWeightDesc}}
	w := &scratch{}
	tile := tl.Tiles[len(tl.Tiles)/2]
	r.tileOrder(w, tile) // grow verts once
	if n := testing.AllocsPerRun(100, func() {
		r.tileOrder(w, tile)
	}); n != 0 {
		t.Errorf("tileOrder(OrderWeightDesc) allocates %v/op, want 0", n)
	}
	// And the order itself: non-increasing weight, ties ascending by id.
	verts := r.tileOrder(w, tile)
	for i := 1; i < len(verts); i++ {
		wa, wb := g.Weight(verts[i-1]), g.Weight(verts[i])
		if wa < wb || (wa == wb && verts[i-1] >= verts[i]) {
			t.Fatalf("order violated at %d: vertex %d (w=%d) before %d (w=%d)",
				i, verts[i-1], wa, verts[i], wb)
		}
	}
}

// noUni2D / noUni3D opt a stencil out of the uniform-weight verdict,
// forcing every placement through the general interval kernel — the
// cross-check path for the free-map kernel.
type noUni2D struct{ *grid.Grid2D }

// UniformWeight opts out (core.UniformWeighter).
func (noUni2D) UniformWeight() (int64, bool) { return 0, false }

type noUni3D struct{ *grid.Grid3D }

// UniformWeight opts out (core.UniformWeighter).
func (noUni3D) UniformWeight() (int64, bool) { return 0, false }

// TestUniformKernelEquivalencePGLL: on uniform-weight grids, the
// deterministic (blind) parallel solver produces byte-identical
// colorings whether placements take the packed free-map kernel or the
// general interval kernel, across dimensions, orders, and parallelism.
func TestUniformKernelEquivalencePGLL(t *testing.T) {
	g2 := grid.MustGrid2D(37, 23)
	for v := range g2.Len() {
		i, j := g2.Coords(v)
		g2.Set(i, j, 4)
	}
	g3 := grid.MustGrid3D(9, 7, 5)
	for v := range g3.Len() {
		i, j, k := g3.Coords(v)
		g3.Set(i, j, k, 2)
	}
	pairs := []struct {
		name     string
		fast, v1 grid.Stencil
	}{
		{"9pt", g2, noUni2D{g2}},
		{"27pt", g3, noUni3D{g3}},
	}
	for _, p := range pairs {
		for _, ord := range []Order{OrderLine, OrderWeightDesc} {
			for _, par := range []int{1, 4} {
				cfg := Config{TileSize: 5, Order: ord, SpeculateBlind: true}
				fast, err := Greedy(p.fast, cfg, &core.SolveOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := Greedy(p.v1, cfg, &core.SolveOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref.Start {
					if ref.Start[v] != fast.Start[v] {
						t.Fatalf("%s order=%d par=%d: vertex %d colored %d by interval kernel, %d by free-map kernel",
							p.name, ord, par, v, ref.Start[v], fast.Start[v])
					}
				}
			}
		}
	}
}

// TestUniformKernelEquivalenceGLL: same cross-check for the sequential
// greedy (GLL and GLF orders) on 9-pt and 27-pt uniform instances.
func TestUniformKernelEquivalenceGLL(t *testing.T) {
	g2 := grid.MustGrid2D(29, 31)
	for v := range g2.Len() {
		i, j := g2.Coords(v)
		g2.Set(i, j, 3)
	}
	g3 := grid.MustGrid3D(8, 6, 7)
	for v := range g3.Len() {
		i, j, k := g3.Coords(v)
		g3.Set(i, j, k, 5)
	}
	pairs := []struct {
		name     string
		fast, v1 grid.Stencil
	}{
		{"9pt", g2, noUni2D{g2}},
		{"27pt", g3, noUni3D{g3}},
	}
	for _, p := range pairs {
		fast, err := core.GreedyColor(p.fast, p.fast.LineOrder())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.GreedyColor(p.v1, p.v1.LineOrder())
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Start {
			if ref.Start[v] != fast.Start[v] {
				t.Fatalf("%s: vertex %d colored %d by interval kernel, %d by free-map kernel",
					p.name, v, ref.Start[v], fast.Start[v])
			}
		}
	}
}

// BenchmarkStealScheduler measures the speculative solve end to end on
// a weight-skewed grid (one heavy corner) at increasing worker counts —
// the shape where the static contiguous partition is unbalanced and
// throughput depends on idle workers stealing tile ranges.
func BenchmarkStealScheduler(b *testing.B) {
	const dim = 128
	g := grid.MustGrid2D(dim, dim)
	rng := rand.New(rand.NewSource(3))
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(9)+1)
	}
	for j := 0; j < dim/4; j++ {
		for i := 0; i < dim/4; i++ {
			g.Set(i, j, 60+rng.Int63n(40))
		}
	}
	cfg := Config{TileSize: 8, SpeculateBlind: true}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Greedy(g, cfg, &core.SolveOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWorkStealingDeterministicRepair: with blind speculation the
// whole solve is a pure function of the instance, so the scheduler —
// whatever it steals, at any parallelism — must reproduce the same
// coloring. Weight-skewed grids force repair rounds, exercising the
// (tile-id, vertex-id) tie-break through the stealing scheduler.
func TestWorkStealingDeterministicRepair(t *testing.T) {
	g := rand2D(t, 41, 37, 9, 99)
	// Skew: make one corner heavy so static tile ranges are unbalanced
	// and idle workers actually steal.
	for j := 0; j < 12; j++ {
		for i := 0; i < 12; i++ {
			g.Set(i, j, 40+int64(i+j))
		}
	}
	cfg := Config{TileSize: 4, SpeculateBlind: true}
	base, err := Greedy(g, cfg, &core.SolveOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		for rep := 0; rep < 3; rep++ {
			c, err := Greedy(g, cfg, &core.SolveOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for v := range base.Start {
				if base.Start[v] != c.Start[v] {
					t.Fatalf("par=%d rep=%d: vertex %d colored %d, sequential reference %d",
						par, rep, v, c.Start[v], base.Start[v])
				}
			}
		}
	}
}
