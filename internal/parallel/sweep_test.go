package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// refTileOf is the tile lookup the face sweep replaces: the ID of the
// tile holding vertex v, from v's coordinates by division.
func refTileOf(lg core.Lattice, size, v int) int {
	_, x, y, _ := lg.Lattice()
	ceil := func(a int) int { return (a + size - 1) / size }
	i, j, k := v%x, v/x%y, v/(x*y)
	return (k/size*ceil(y)+j/size)*ceil(x) + i/size
}

// refDetect is the sweep the face sweep replaces: every cell of every
// tile, each neighbor's tile looked up by division, and a cell loses
// when a colored, positive-weight neighbor in an earlier tile overlaps
// it. It returns each tile's losers in ascending id order.
func refDetect(lg core.Lattice, tl *grid.Tiling, start []int64) [][]int {
	out := make([][]int, len(tl.Tiles))
	for _, tile := range tl.Tiles {
		for _, v := range tile.AppendVertices(nil) {
			wv := lg.Weight(v)
			if start[v] == core.Unset || wv <= 0 {
				continue
			}
			for _, u := range lg.Neighbors(v, nil) {
				wu := lg.Weight(u)
				if refTileOf(lg, tl.Size, u) >= tile.ID || start[u] == core.Unset || wu <= 0 {
					continue
				}
				if start[v] < start[u]+wu && start[u] < start[v]+wv {
					out[tile.ID] = append(out[tile.ID], v)
					break
				}
			}
		}
	}
	return out
}

// TestDetectMatchesReference: the face sweep's per-tile loser lists
// equal the division-based reference sweep's on random partial
// colorings (about a third of the cells uncolored, zero weights
// included), over clipped edge tiles, tile sizes 1, 2, 3 and 16, a
// single tile, and 1×N, N×1 and N×1×1 grids, at one and three workers.
func TestDetectMatchesReference(t *testing.T) {
	stencils := []grid.Stencil{
		rand2D(t, 13, 9, 5, 1),
		rand2D(t, 1, 40, 5, 2),
		rand2D(t, 40, 1, 5, 3),
		rand2D(t, 70, 33, 5, 4),
		rand3D(t, 9, 7, 5, 5, 5),
		rand3D(t, 40, 1, 1, 5, 6),
		rand3D(t, 1, 1, 23, 5, 7),
		rand3D(t, 18, 17, 19, 5, 8),
	}
	for si, s := range stencils {
		lg := s.(core.Lattice)
		for _, size := range []int{1, 2, 3, 16, 1 << 10} {
			tl, err := s.Tiling(size)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(si*100 + size)))
			c := core.NewColoring(s.Len())
			for v := range c.Start {
				if rng.Intn(3) != 0 {
					c.Start[v] = rng.Int63n(12)
				}
			}
			want := refDetect(lg, tl, c.Start)
			for _, par := range []int{1, 3} {
				name := fmt.Sprintf("%v size %d par %d", s, size, par)
				bufs := acquireBufs(tl, s.Len(), par)
				r := &run{g: lg, s: s, tl: tl, opts: &core.SolveOptions{Parallelism: par},
					c: c, par: par, bufs: bufs, mark: bufs.mark}
				r.fit.Bind(lg)
				total, err := r.detect()
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for i := range tl.Tiles {
					got := bufs.losers[bufs.loserOff[i]:bufs.loserEnd[i]]
					if !slices.Equal(got, want[i]) {
						t.Fatalf("%s tile %d: losers %v, want %v", name, i, got, want[i])
					}
					n += len(got)
				}
				if total != n {
					t.Fatalf("%s: detect counted %d losers, the tiles hold %d", name, total, n)
				}
				releaseBufs(bufs)
			}
		}
	}
}

// TestColdSolveAllocs pins a cold PGLL solve on 64³ (64 bricks of 16³),
// its arena pools emptied by two collections, under a fixed allocation
// count at one and two workers: the solver's buffers are flat slices,
// so nothing is allocated per tile.
func TestColdSolveAllocs(t *testing.T) {
	g := rand3D(t, 64, 64, 64, 9, 11)
	for _, par := range []int{1, 2} {
		solve := func() {
			if _, err := Greedy(g, Config{}, &core.SolveOptions{Parallelism: par}); err != nil {
				t.Fatal(err)
			}
		}
		// AllocsPerRun's own warm-up call fills the pools that the
		// collections then empty.
		if n := testing.AllocsPerRun(1, func() {
			runtime.GC()
			runtime.GC()
			solve()
		}); n > 64 {
			t.Errorf("par %d: a cold 64³ solve made %v allocations, want at most 64", par, n)
		}
	}
}

// BenchmarkConflictSweep times one detection sweep of PGLL's repair
// loop on a speculated 64³ grid of 16³ bricks (blind speculation, so
// every halo conflict is still there to find) at one worker.
func BenchmarkConflictSweep(b *testing.B) {
	g := rand3D(b, 64, 64, 64, 9, 12)
	tl, err := g.Tiling(DefaultTileSize3D)
	if err != nil {
		b.Fatal(err)
	}
	opts := &core.SolveOptions{Parallelism: 1}
	bufs := acquireBufs(tl, g.Len(), 1)
	defer releaseBufs(bufs)
	r := &run{g: g, s: g, tl: tl, cfg: Config{SpeculateBlind: true}, opts: opts,
		c: core.NewColoring(g.Len()), par: 1, bufs: bufs, mark: bufs.mark}
	r.fit.Bind(g)
	if err := r.speculate(nil); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("%dx%dx%d", g.X(), g.Y(), g.Z()), func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if n, err := r.detect(); err != nil || n == 0 {
				b.Fatalf("detect found %d conflicts, err %v", n, err)
			}
		}
	})
}
