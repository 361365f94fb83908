package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
	"stencilivc/internal/order"
)

// genericOnly strips a stencil down to the plain core.Graph method set,
// forcing PlaceLowest onto its generic (slice-based) path.
type genericOnly struct{ core.Graph }

// latticeShapes are the grids the kernel's lattice binding is checked
// on: degenerate lines and columns, shapes with no interior vertex
// (2×2) or exactly one (3×3, 3×3×3), and 3D grids one cell thick along
// each axis in turn, where the interior offset table must not be
// applied.
func latticeShapes() []Stencil {
	return []Stencil{
		MustGrid2D(1, 1), MustGrid2D(7, 1), MustGrid2D(1, 9), MustGrid2D(6, 5),
		MustGrid2D(2, 2), MustGrid2D(3, 3), MustGrid2D(7, 6),
		MustGrid3D(1, 1, 3), MustGrid3D(4, 3, 5), MustGrid3D(3, 3, 3),
		MustGrid3D(5, 4, 1), MustGrid3D(5, 1, 4), MustGrid3D(1, 5, 4), MustGrid3D(4, 4, 3),
	}
}

// TestNeighborsFixedMatchesNeighbors: a kernel bound to a grid lists
// exactly the neighbor set of the grid's Neighbors for every vertex,
// whether it takes the interior offset table or the boundary path.
func TestNeighborsFixedMatchesNeighbors(t *testing.T) {
	for _, g := range latticeShapes() {
		var s core.FitScratch
		s.Bind(g)
		for v := 0; v < g.Len(); v++ {
			want := g.Neighbors(v, nil)
			got := append([]int{}, s.Neighbors(v)...)
			sort.Ints(got)
			sort.Ints(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%v vertex %d: kernel Neighbors=%v, grid Neighbors=%v", g, v, got, want)
			}
			if d := core.Degree(g, v); d != len(want) {
				t.Fatalf("%v vertex %d: Degree=%d, want %d", g, v, d, len(want))
			}
		}
	}
}

// TestRelaxedDegrees: the O(1) degree formulas of the 5-pt/7-pt
// relaxations agree with their neighbor lists.
func TestRelaxedDegrees(t *testing.T) {
	f := FivePt{G: MustGrid2D(6, 4)}
	for v := 0; v < f.Len(); v++ {
		if got, want := f.Degree(v), len(f.Neighbors(v, nil)); got != want {
			t.Fatalf("FivePt vertex %d: Degree=%d, want %d", v, got, want)
		}
	}
	s := SevenPt{G: MustGrid3D(4, 3, 5)}
	for v := 0; v < s.Len(); v++ {
		if got, want := s.Degree(v), len(s.Neighbors(v, nil)); got != want {
			t.Fatalf("SevenPt vertex %d: Degree=%d, want %d", v, got, want)
		}
	}
}

// TestPlaceFixedMatchesGeneric: a kernel bound to a grid (the lattice
// path of PlaceLowest) and one sharing that binding through BindAs
// return the same start as the generic path, over random partial
// colorings, every vertex and every skip argument. MaxColor's lattice
// path agrees with its generic path on the same colorings, which hold
// Unset starts and zero weights, and on every prefix of them.
func TestPlaceFixedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range latticeShapes() {
		for v := range g.Len() {
			setWeight(g, v, rng.Int63n(7))
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			if rng.Intn(3) > 0 {
				c.Start[v] = rng.Int63n(15)
			}
		}
		for n := range len(c.Start) + 1 {
			short := core.Coloring{Start: c.Start[:n]}
			if got, want := short.MaxColor(g), short.MaxColor(genericOnly{g}); got != want {
				t.Fatalf("%v first %d starts: lattice MaxColor=%d generic=%d", g, n, got, want)
			}
		}
		var fast, owner, shared, slow core.FitScratch
		owner.Bind(g)
		shared.BindAs(&owner)
		for v := 0; v < g.Len(); v++ {
			skips := append([]int{-1, 0, v, (v + 1) % g.Len()}, g.Neighbors(v, nil)...)
			for _, skip := range skips {
				want := slow.PlaceLowest(genericOnly{g}, c, v, skip)
				if got := fast.PlaceLowest(g, c, v, skip); got != want {
					t.Fatalf("%v vertex %d skip %d: lattice=%d generic=%d", g, v, skip, got, want)
				}
				if got := shared.PlaceLowest(g, c, v, skip); got != want {
					t.Fatalf("%v vertex %d skip %d: BindAs=%d generic=%d", g, v, skip, got, want)
				}
			}
		}
	}
}

// setWeight assigns vertex v's weight through either grid's store.
func setWeight(s Stencil, v int, w int64) { s.(interface{ set(int, int64) }).set(v, w) }

// TestPlaceLowestNoAllocs: the lattice path does zero heap work
// per placement — the contract behind the tile-parallel solver's
// allocation-free inner loop. The contract holds both bare and with a
// stats sink and metrics bundle attached: flushing the kernel's tallies
// into them is plain atomic adds, so observability must not cost the
// hot path a single allocation.
func TestPlaceLowestNoAllocs(t *testing.T) {
	g := MustGrid3D(6, 6, 6)
	rng := rand.New(rand.NewSource(2))
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(9)+1)
	}
	c := core.NewColoring(g.Len())
	for v := range c.Start {
		c.Start[v] = rng.Int63n(40)
	}
	sinks := map[string]*core.SolveOptions{
		"bare":    nil,
		"metrics": {Stats: &core.Stats{}, Metrics: obsv.NewSolveMetrics(obsv.NewRegistry())},
	}
	for name, opts := range sinks {
		t.Run(name, func(t *testing.T) {
			var s core.FitScratch
			v := 0
			allocs := testing.AllocsPerRun(500, func() {
				s.PlaceLowest(g, c, v, -1)
				s.Flush(opts)
				v = (v + 1) % g.Len()
			})
			if allocs != 0 {
				t.Errorf("PlaceLowest allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkPlaceLowest measures the steady-state placement kernel. The
// 9pt, 27pt, Unit, Bitset and Metrics rows place against fully colored
// neighborhoods (8 or 26 intervals, all below color 256 on the mixed
// rows); the Line rows run a line-order greedy, where only the vertices
// before v are colored (at most 4 or 13 intervals), and the Heavy rows
// the same greedy with weights 60–99, whose neighborhoods mostly end
// past the color map and take the streaming scan. The Order rows run
// the greedy in GLF's visit order (non-increasing weight, weights 1–9),
// where whether a neighbor is already colored follows no pattern a
// branch predictor could learn. Every row must read 0 allocs/op. Each
// sweep over the grid, and the run, ends with a flush of the kernel's
// tallies, as a solve does; the Metrics rows flush into a metrics
// bundle, the daemon's configuration.
func BenchmarkPlaceLowest(b *testing.B) {
	// sweep places the vertices in visit order (id order when visit is
	// nil). With greedy set it writes each start into c and clears c
	// after every sweep, so the run is a greedy solve repeated.
	sweep := func(b *testing.B, g Stencil, c core.Coloring, opts *core.SolveOptions, greedy bool, visit []int) {
		var s core.FitScratch
		b.ReportAllocs()
		b.ResetTimer()
		k := 0
		for i := 0; i < b.N; i++ {
			v := k
			if visit != nil {
				v = visit[k]
			}
			start := s.PlaceLowest(g, c, v, -1)
			if greedy {
				c.Start[v] = start
			}
			k++
			if k == g.Len() {
				k = 0
				s.Flush(opts)
				if greedy {
					for u := range c.Start {
						c.Start[u] = core.Unset
					}
				}
			}
		}
		s.Flush(opts)
	}
	run := func(b *testing.B, g Stencil, opts *core.SolveOptions) {
		rng := rand.New(rand.NewSource(1))
		for v := range g.Len() {
			setWeight(g, v, rng.Int63n(9)+1)
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			c.Start[v] = rng.Int63n(60)
		}
		sweep(b, g, c, opts, false, nil)
	}
	// line runs the line-order greedy with weights lo..hi, or with
	// byWeight GLF's weight order.
	line := func(b *testing.B, g Stencil, lo, hi int64, byWeight bool) {
		rng := rand.New(rand.NewSource(1))
		for v := range g.Len() {
			setWeight(g, v, lo+rng.Int63n(hi-lo+1))
		}
		var visit []int
		if byWeight {
			visit = order.ByWeightDesc(g)
		}
		sweep(b, g, core.NewColoring(g.Len()), nil, true, visit)
	}
	// Uniform-weight variants route through the packed free-map kernel
	// (weight 1 is the classic-coloring degenerate case, weight 5 a
	// common slot width); starts are slot-aligned, as greedy produces.
	runUniform := func(b *testing.B, g Stencil, wv int64) {
		rng := rand.New(rand.NewSource(1))
		for v := range g.Len() {
			setWeight(g, v, wv)
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			c.Start[v] = rng.Int63n(12) * wv
		}
		sweep(b, g, c, nil, false, nil)
	}
	metered := &core.SolveOptions{Metrics: obsv.NewSolveMetrics(obsv.NewRegistry())}
	b.Run("9pt", func(b *testing.B) { run(b, MustGrid2D(64, 64), nil) })
	b.Run("27pt", func(b *testing.B) { run(b, MustGrid3D(16, 16, 16), nil) })
	b.Run("Unit/9pt", func(b *testing.B) { runUniform(b, MustGrid2D(64, 64), 1) })
	b.Run("Unit/27pt", func(b *testing.B) { runUniform(b, MustGrid3D(16, 16, 16), 1) })
	b.Run("Bitset/9pt", func(b *testing.B) { runUniform(b, MustGrid2D(64, 64), 5) })
	b.Run("Bitset/27pt", func(b *testing.B) { runUniform(b, MustGrid3D(16, 16, 16), 5) })
	b.Run("Metrics/9pt", func(b *testing.B) { run(b, MustGrid2D(64, 64), metered) })
	b.Run("Metrics/27pt", func(b *testing.B) { run(b, MustGrid3D(16, 16, 16), metered) })
	b.Run("Line/9pt", func(b *testing.B) { line(b, MustGrid2D(64, 64), 1, 9, false) })
	b.Run("Line/27pt", func(b *testing.B) { line(b, MustGrid3D(16, 16, 16), 1, 9, false) })
	b.Run("Heavy/9pt", func(b *testing.B) { line(b, MustGrid2D(64, 64), 60, 99, false) })
	b.Run("Heavy/27pt", func(b *testing.B) { line(b, MustGrid3D(16, 16, 16), 60, 99, false) })
	b.Run("Order/9pt", func(b *testing.B) { line(b, MustGrid2D(64, 64), 1, 9, true) })
	b.Run("Order/27pt", func(b *testing.B) { line(b, MustGrid3D(16, 16, 16), 1, 9, true) })
}
