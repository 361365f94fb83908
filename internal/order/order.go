// Package order provides the classic vertex-ordering strategies from the
// graph-coloring literature the paper builds on (Section II-B): Largest
// First by degree (Welsh & Powell), Smallest Last (Matula & Beck), and
// weighted variants, plus Culberson-style iterated greedy recoloring as a
// generic post-optimization. The paper's own geometric and weight-based
// orders live in internal/grid and internal/heuristics; this package
// rounds out the ordering toolbox for ablation studies and for users with
// non-stencil conflict graphs.
package order

import (
	"math/rand"
	"sort"

	"stencilivc/internal/core"
)

// Identity returns 0..n-1.
func Identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ByWeightDesc orders vertices by non-increasing weight, ties by id: the
// GLF visit order (Section V-A), shared by the GLF/PGLF solvers and the
// exact solvers' incumbents. It runs in linear time on core.OrderByKey.
func ByWeightDesc(g core.Graph) []int {
	keys := make([]uint64, g.Len())
	for v := range keys {
		keys[v] = core.WeightDescKey(g.Weight(v))
	}
	return core.OrderByKey(keys)
}

// ByDegreeDesc is Welsh & Powell's Largest First: vertices by
// non-increasing degree (ties by id).
func ByDegreeDesc(g core.Graph) []int {
	n := g.Len()
	deg := make([]int, n)
	var buf []int
	for v := 0; v < n; v++ {
		buf = g.Neighbors(v, buf[:0])
		deg[v] = len(buf)
	}
	out := Identity(n)
	sort.SliceStable(out, func(a, b int) bool {
		return deg[out[a]] > deg[out[b]]
	})
	return out
}

// SmallestLast is Matula & Beck's order: repeatedly remove a minimum
// degree vertex from the remaining graph; color in reverse removal order.
// For stencils this tends to color the interior before the boundary.
func SmallestLast(g core.Graph) []int {
	n := g.Len()
	deg := make([]int, n)
	removed := make([]bool, n)
	var buf []int
	for v := 0; v < n; v++ {
		buf = g.Neighbors(v, buf[:0])
		deg[v] = len(buf)
	}
	removal := make([]int, 0, n)
	for len(removal) < n {
		// Min-degree unremoved vertex (ties by id, deterministic).
		pick, best := -1, 1<<62
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < best {
				pick, best = v, deg[v]
			}
		}
		removed[pick] = true
		removal = append(removal, pick)
		buf = g.Neighbors(pick, buf[:0])
		for _, u := range buf {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	// Reverse: last removed is colored first.
	out := make([]int, n)
	for i, v := range removal {
		out[n-1-i] = v
	}
	return out
}

// Shuffled returns a seeded random permutation, the baseline order for
// ablation studies.
func Shuffled(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(n)
}

// ByStartAsc orders vertices by the start of their interval in an
// existing coloring (ties by id) — the "revisit in schedule order" pass
// of iterated greedy.
func ByStartAsc(c core.Coloring) []int {
	out := Identity(len(c.Start))
	sort.SliceStable(out, func(a, b int) bool {
		return c.Start[out[a]] < c.Start[out[b]]
	})
	return out
}

// ByEndDesc orders vertices by non-increasing interval end — Culberson's
// classic "reverse" pass, which tends to compact the top of the range.
func ByEndDesc(g core.Graph, c core.Coloring) []int {
	out := Identity(len(c.Start))
	sort.SliceStable(out, func(a, b int) bool {
		ea := c.Start[out[a]] + g.Weight(out[a])
		eb := c.Start[out[b]] + g.Weight(out[b])
		return ea > eb
	})
	return out
}

// Recolor compacts a complete valid coloring in place: each vertex in
// order is lifted out and re-placed at its lowest feasible start. Since a
// vertex's old start stays feasible, maxcolor never increases.
func Recolor(g core.Graph, c core.Coloring, order []int) {
	s := core.AcquireFitScratch(nil)
	defer core.ReleaseFitScratch(s)
	for _, v := range order {
		c.Start[v] = core.Unset
		c.Start[v] = s.PlaceLowest(g, c, v, -1)
	}
}

// IteratedGreedy runs rounds of recoloring passes, alternating the
// end-descending and start-ascending orders (Culberson's iterated greedy
// adapted to interval coloring), stopping early when a full round makes
// no progress. Returns the number of rounds that improved maxcolor.
func IteratedGreedy(g core.Graph, c core.Coloring, rounds int) int {
	improved := 0
	prev := c.MaxColor(g)
	for r := 0; r < rounds; r++ {
		Recolor(g, c, ByEndDesc(g, c))
		Recolor(g, c, ByStartAsc(c))
		now := c.MaxColor(g)
		if now < prev {
			improved++
			prev = now
		} else {
			break
		}
	}
	return improved
}
