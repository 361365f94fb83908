package heuristics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// listSearch is SGK's block search fitted on lists, the reference for
// permSearch's color maps: each uncolored member's fixed occupancy is
// gathered once per block from the grid's own Neighbors, and each trial
// placement fits that list plus the intervals of the members placed
// before it with FitScratch.Fit, which tallies it.
type listSearch struct {
	g core.Graph
	c core.Coloring
	s *core.FitScratch

	members, uncolored, perm []int
	occ                      [][]core.Interval
	best                     []int64
	bestLocal                int64
}

// gather appends the interval of every colored, weighted vertex of nb.
func (ls *listSearch) gather(occ []core.Interval, nb []int) []core.Interval {
	for _, u := range nb {
		if su, wu := ls.c.Start[u], ls.g.Weight(u); su != core.Unset && wu > 0 {
			occ = append(occ, core.NewInterval(su, wu))
		}
	}
	return occ
}

func (ls *listSearch) commitBest(offsets []int, a int) {
	ls.members, ls.uncolored = ls.members[:0], ls.uncolored[:0]
	for _, off := range offsets {
		v := a + off
		ls.members = append(ls.members, v)
		if !ls.c.Colored(v) {
			ls.uncolored = append(ls.uncolored, v)
		}
	}
	if len(ls.uncolored) == 0 {
		return
	}
	ls.perm = append(ls.perm[:0], ls.uncolored...)
	ls.occ = ls.occ[:0]
	for _, v := range ls.uncolored {
		ls.occ = append(ls.occ, ls.gather(nil, ls.g.Neighbors(v, nil)))
	}
	ls.best = make([]int64, len(ls.uncolored))
	ls.bestLocal = math.MaxInt64
	ls.try(0)
	for i, v := range ls.uncolored {
		ls.c.Start[v] = ls.best[i]
	}
}

func (ls *listSearch) try(k int) {
	g, c := ls.g, ls.c
	if k == len(ls.perm) {
		var local int64
		for _, v := range ls.members {
			if c.Colored(v) {
				local = max(local, c.Start[v]+g.Weight(v))
			}
		}
		if local < ls.bestLocal {
			ls.bestLocal = local
			for i, v := range ls.uncolored {
				ls.best[i] = c.Start[v]
			}
		}
		return
	}
	perm, occ := ls.perm, ls.occ
	for i := k; i < len(perm); i++ {
		perm[k], perm[i] = perm[i], perm[k]
		occ[k], occ[i] = occ[i], occ[k]
		v := perm[k]
		trial := ls.gather(slices.Clone(occ[k]), perm[:k])
		c.Start[v] = ls.s.Fit(trial, v)
		ls.try(k + 1)
		c.Start[v] = core.Unset
		occ[k], occ[i] = occ[i], occ[k]
		perm[k], perm[i] = perm[i], perm[k]
	}
}

// TestBlockSearchMatchesListSearch runs SGK's color-map search and the
// list-based reference on the same blocks and compares the committed
// starts and the placement and probe tallies. Weights include zeros and
// run to 150, and a random partial coloring with starts up to 400
// precolors some members and most neighborhoods, so fixed occupancies
// and trial intervals end below 64, past it and past the map's 256
// colors (the search's fallback). Each block is searched from that
// coloring, and then whole sweeps are compared, where later blocks
// find members colored by earlier ones. The K8 covers run the full
// 8!-order 3D ablation.
func TestBlockSearchMatchesListSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := [][3]int{{5, 4, 1}, {7, 6, 1}, {1, 9, 1}, {3, 2, 2}, {2, 3, 3}}
	for _, sh := range shapes {
		for _, span := range []int64{10, 100, 150} {
			name := fmt.Sprintf("%dx%dx%d/w<%d", sh[0], sh[1], sh[2], span)
			g := grid.MustGrid3D(sh[0], sh[1], sh[2])
			for v := range g.Len() {
				i, j, k := g.Coords(v)
				if rng.Intn(4) > 0 {
					g.Set(i, j, k, rng.Int63n(span))
				}
			}
			cv := g.CliqueBlocks()
			pre := core.NewColoring(g.Len())
			for v := range pre.Start {
				if rng.Intn(2) == 0 {
					pre.Start[v] = rng.Int63n(400)
				}
			}
			var mapK, listK core.FitScratch
			mapK.Bind(g)
			listK.Bind(g)
			ps := permSearch{s: &mapK, w: mapK.Weights()}
			ls := listSearch{g: g, s: &listK}
			for b := range cv.Len() {
				ps.c, ls.c = pre.Clone(), pre.Clone()
				ps.commitBest(cv.Offsets, cv.Anchor(b))
				ls.commitBest(cv.Offsets, cv.Anchor(b))
				if !slices.Equal(ps.c.Start, ls.c.Start) {
					t.Fatalf("%s block %d: map search %v, list search %v", name, b, ps.c.Start, ls.c.Start)
				}
			}
			sameTallies(t, name+" blocks", &mapK, &listK)

			var mapSt, listSt core.Stats
			got, err := smartBlocksPermuted(g, cv, &core.SolveOptions{Stats: &mapSt})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sweepBlocks(g, cv, &core.SolveOptions{Stats: &listSt}, func(c core.Coloring, s *core.FitScratch, a int) {
				ls.c, ls.s = c, s
				ls.commitBest(cv.Offsets, a)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Start, want.Start) {
				t.Fatalf("%s sweep: map search %v, list search %v", name, got.Start, want.Start)
			}
			if mapSt.Placements() != listSt.Placements() || mapSt.Probes() != listSt.Probes() {
				t.Fatalf("%s sweep: map search tallied %d/%d, list search %d/%d", name,
					mapSt.Placements(), mapSt.Probes(), listSt.Placements(), listSt.Probes())
			}
		}
	}
}

// sameTallies flushes both kernels and fails unless they tallied the
// same placements and probes.
func sameTallies(t *testing.T, name string, a, b *core.FitScratch) {
	t.Helper()
	var as, bs core.Stats
	a.Flush(&core.SolveOptions{Stats: &as})
	b.Flush(&core.SolveOptions{Stats: &bs})
	if as.Placements() != bs.Placements() || as.Probes() != bs.Probes() || as.Placements() == 0 {
		t.Fatalf("%s: map search tallied %d/%d, list search %d/%d", name,
			as.Placements(), as.Probes(), bs.Placements(), bs.Probes())
	}
}

// BenchmarkBlockSearch times SGK's 2D block search alone: one op is one
// K4 block's permutation search, visited in SGK's block order on a 64²
// grid with weights 1–9, the coloring cleared after every sweep. It
// must read 0 allocs/op.
func BenchmarkBlockSearch(b *testing.B) {
	g := random2D(rand.New(rand.NewSource(1)), 64, 64, 8)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, g.Weight(v)+1)
	}
	cv := g.CliqueBlocks()
	order := cv.ByWeightDesc()
	var s core.FitScratch
	s.Bind(g)
	ps := permSearch{c: core.NewColoring(g.Len()), s: &s, w: s.Weights()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi := i % len(order)
		if bi == 0 && i > 0 {
			for v := range ps.c.Start {
				ps.c.Start[v] = core.Unset
			}
			s.Flush(nil)
		}
		ps.commitBest(cv.Offsets, cv.Anchor(order[bi]))
	}
}
