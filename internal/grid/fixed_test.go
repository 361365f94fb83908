package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
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
// colorings, every vertex and every skip argument.
func TestPlaceFixedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range latticeShapes() {
		for v := range weights(g) {
			setWeight(g, v, rng.Int63n(7))
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			if rng.Intn(3) > 0 {
				c.Start[v] = rng.Int63n(15)
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

func weights(s Stencil) []int64 {
	switch g := s.(type) {
	case *Grid2D:
		return g.W
	case *Grid3D:
		return g.W
	}
	panic("unknown stencil")
}

func setWeight(s Stencil, v int, w int64) { weights(s)[v] = w }

// TestPlaceLowestNoAllocs: the lattice path does zero heap work
// per placement — the contract behind the tile-parallel solver's
// allocation-free inner loop. The contract holds both bare and with a
// stats sink and metrics bundle attached: flushing the kernel's tallies
// into them is plain atomic adds, so observability must not cost the
// hot path a single allocation.
func TestPlaceLowestNoAllocs(t *testing.T) {
	g := MustGrid3D(6, 6, 6)
	rng := rand.New(rand.NewSource(2))
	for v := range g.W {
		g.W[v] = rng.Int63n(9) + 1
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
				s.Flush(opts, 0)
				v = (v + 1) % g.Len()
			})
			if allocs != 0 {
				t.Errorf("PlaceLowest allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkPlaceLowest measures the steady-state placement kernel on
// fully colored interior neighborhoods (the hot case of every greedy
// solver). The acceptance bar for PR 2 is 0 allocs/op. Each sweep over
// the grid, and the run, ends with a flush of the kernel's tallies, as
// a solve does; the Metrics rows flush into a metrics bundle, the
// daemon's configuration.
func BenchmarkPlaceLowest(b *testing.B) {
	sweep := func(b *testing.B, g Stencil, c core.Coloring, opts *core.SolveOptions) {
		var s core.FitScratch
		b.ReportAllocs()
		b.ResetTimer()
		v := 0
		for i := 0; i < b.N; i++ {
			s.PlaceLowest(g, c, v, -1)
			v++
			if v == g.Len() {
				v = 0
				s.Flush(opts, 0)
			}
		}
		s.Flush(opts, 0)
	}
	run := func(b *testing.B, g Stencil, opts *core.SolveOptions) {
		rng := rand.New(rand.NewSource(1))
		w := weights(g)
		for v := range w {
			w[v] = rng.Int63n(9) + 1
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			c.Start[v] = rng.Int63n(60)
		}
		sweep(b, g, c, opts)
	}
	// Uniform-weight variants route through the packed free-map kernel
	// (weight 1 is the classic-coloring degenerate case, weight 5 a
	// common slot width); starts are slot-aligned, as greedy produces.
	runUniform := func(b *testing.B, g Stencil, wv int64) {
		rng := rand.New(rand.NewSource(1))
		w := weights(g)
		for v := range w {
			w[v] = wv
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			c.Start[v] = rng.Int63n(12) * wv
		}
		sweep(b, g, c, nil)
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
}
