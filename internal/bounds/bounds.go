package bounds

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// MaxPair returns the trivial edge lower bound
// max(max_v w(v), max_{(u,v) in E} w(u)+w(v)): two adjacent intervals are
// disjoint, so some vertex ends at or after their combined length.
func MaxPair(g core.Graph) int64 {
	var b int64
	var buf []int
	for v := 0; v < g.Len(); v++ {
		wv := g.Weight(v)
		b = max(b, wv)
		buf = g.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u > v {
				b = max(b, wv+g.Weight(u))
			}
		}
	}
	return b
}

// MaxK4 returns the max-clique lower bound of a 9-pt stencil: the largest
// total weight of any 2×2 block (Section III-A). Degenerate grids
// (X == 1 or Y == 1) contain no K4; their clique cover holds the chain's
// edge pairs, so the bound is the pair bound there.
func MaxK4(g *grid.Grid2D) int64 { return maxClique(g) }

// MaxK8 returns the max-clique lower bound of a 27-pt stencil: the largest
// total weight of any 2×2×2 block. A grid with a unit dimension is 2D in
// disguise (Section II): its clique cover holds the K4 blocks of its plane
// in whichever orientation it has (X×Y×1, X×1×Z or 1×Y×Z), or the pairs
// of a chain, so the bound is the best K4 (or pair) bound over every
// axis-aligned slab of thickness 1.
func MaxK8(g *grid.Grid3D) int64 { return maxClique(g) }

// maxClique is the heaviest block of the stencil's clique cover, or the
// heaviest single vertex if that is larger.
func maxClique(s grid.Stencil) int64 {
	return max(s.CliqueBlocks().MaxWeight(), core.MaxWeight(s))
}

// CliqueSum returns the exact optimum of a clique: the sum of all weights
// (Section III-A). It is exported for use as a bound on arbitrary vertex
// subsets the caller knows to be mutually adjacent.
func CliqueSum(weights []int64) int64 {
	var sum int64
	for _, w := range weights {
		sum += w
	}
	return sum
}

// Combined2D returns the best known lower bound of a 2DS-IVC instance:
// the maximum of the pair bound, the K4 bound, and — when budget > 0 —
// the odd-cycle bound explored with the given search budget.
func Combined2D(g *grid.Grid2D, oddCycleBudget int) int64 {
	b := max(MaxPair(g), MaxK4(g))
	if oddCycleBudget > 0 {
		b = max(b, OddCycle(g, 9, oddCycleBudget))
	}
	return b
}

// Combined3D is Combined2D for 3DS-IVC instances.
func Combined3D(g *grid.Grid3D, oddCycleBudget int) int64 {
	b := max(MaxPair(g), MaxK8(g))
	if oddCycleBudget > 0 {
		b = max(b, OddCycle(g, 7, oddCycleBudget))
	}
	return b
}
