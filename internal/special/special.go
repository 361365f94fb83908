package special

import (
	"errors"
	"fmt"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// ColorClique colors a clique optimally by stacking the intervals in the
// given order; the optimum is the total weight (Section III-A). Θ(V).
func ColorClique(weights []int64) (starts []int64, maxcolor int64) {
	starts = make([]int64, len(weights))
	var cur int64
	for i, w := range weights {
		starts[i] = cur
		cur += w
	}
	return starts, cur
}

// ErrNotBipartite reports that a graph handed to ColorBipartite contains
// an odd cycle.
var ErrNotBipartite = errors.New("special: graph is not bipartite")

// Bipartition 2-colors g by BFS. side[v] is 0 or 1; connected components
// are rooted at their smallest vertex with side 0. Returns ErrNotBipartite
// when an odd cycle exists.
func Bipartition(g core.Graph) (side []uint8, err error) {
	const unseen = 2
	side = make([]uint8, g.Len())
	for v := range side {
		side[v] = unseen
	}
	queue := make([]int, 0, g.Len())
	var buf []int
	for root := 0; root < g.Len(); root++ {
		if side[root] != unseen {
			continue
		}
		side[root] = 0
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			buf = g.Neighbors(v, buf[:0])
			for _, u := range buf {
				switch side[u] {
				case unseen:
					side[u] = 1 - side[v]
					queue = append(queue, u)
				case side[v]:
					return nil, fmt.Errorf("%w: odd cycle through vertices %d and %d",
						ErrNotBipartite, v, u)
				}
			}
		}
	}
	return side, nil
}

// ColorBipartite colors a bipartite graph optimally (Section III-B):
// maxcolor* = max(max_v w(v), max_{(i,j) in E} w(i)+w(j)); side-A vertices
// start at 0 and side-B vertices end at maxcolor*. Θ(E). The max_v term
// covers isolated vertices, which belong to no edge.
func ColorBipartite(g core.Graph) (core.Coloring, int64, error) {
	side, err := Bipartition(g)
	if err != nil {
		return core.Coloring{}, 0, err
	}
	maxcolor := bounds.MaxPair(g)
	c := core.NewColoring(g.Len())
	for v := 0; v < g.Len(); v++ {
		if side[v] == 0 {
			c.Start[v] = 0
		} else {
			c.Start[v] = maxcolor - g.Weight(v)
		}
	}
	return c, maxcolor, nil
}

// ColorChain colors a path graph v0-v1-...-v(n-1) optimally into starts,
// which must be at least as long as weights: even indices start at 0,
// odd indices end at maxcolor* = max adjacent pair sum. This is the
// row/chain subroutine of the Bipartite Decomposition approximation
// (Section V-B), which hands it a row of its coloring. Θ(n), no
// allocation.
func ColorChain(starts, weights []int64) (maxcolor int64) {
	n := len(weights)
	for i, w := range weights {
		maxcolor = max(maxcolor, w)
		if i+1 < n {
			maxcolor = max(maxcolor, w+weights[i+1])
		}
	}
	for i, w := range weights {
		if i%2 == 0 {
			starts[i] = 0
		} else {
			starts[i] = maxcolor - w
		}
	}
	return maxcolor
}

// OddCycleOptimum returns maxcolor* of the cycle with the given weights
// when its length is odd: max(maxpair, minchain3) by Theorem 1.
func OddCycleOptimum(weights []int64) (int64, error) {
	if len(weights) < 3 {
		return 0, fmt.Errorf("special: cycle needs >= 3 vertices, got %d", len(weights))
	}
	if len(weights)%2 == 0 {
		return 0, errors.New("special: cycle has even length; use ColorBipartite")
	}
	return max(bounds.MaxPairOfCycle(weights), bounds.MinChain3OfCycle(weights)), nil
}

// ColorOddCycle colors an odd cycle optimally with
// max(maxpair, minchain3) colors following the constructive proof of
// Lemma 2: rotate so the minimum 3-chain starts at position 0, color
// 0:[0,w0), 1:[w0,w0+w1), 2:[M−w2,M), then alternate the remaining
// vertices between 0-aligned (odd offsets) and M-aligned (even offsets).
func ColorOddCycle(weights []int64) ([]int64, int64, error) {
	m, err := OddCycleOptimum(weights)
	if err != nil {
		return nil, 0, err
	}
	n := len(weights)
	// Locate the rotation whose 3-chain is minimal.
	rot, best := 0, int64(1)<<62
	for i := 0; i < n; i++ {
		sum := weights[i] + weights[(i+1)%n] + weights[(i+2)%n]
		if sum < best {
			best, rot = sum, i
		}
	}
	starts := make([]int64, n)
	for x := 0; x < n; x++ {
		v := (rot + x) % n
		switch {
		case x == 0:
			starts[v] = 0
		case x == 1:
			starts[v] = weights[(rot)%n]
		case x == 2:
			starts[v] = m - weights[v]
		case x%2 == 1:
			starts[v] = 0
		default:
			starts[v] = m - weights[v]
		}
	}
	return starts, m, nil
}

// ColorFivePt optimally colors the 5-pt relaxation of a 2D grid
// (Section III-B: the relaxation is bipartite on the checkerboard).
func ColorFivePt(g *grid.Grid2D) (core.Coloring, int64) {
	f := grid.FivePt{G: g}
	maxcolor := bounds.MaxPair(f)
	c := core.NewColoring(f.Len())
	for v := 0; v < f.Len(); v++ {
		if f.Parity(v) == 0 {
			c.Start[v] = 0
		} else {
			c.Start[v] = maxcolor - f.Weight(v)
		}
	}
	return c, maxcolor
}

// ColorSevenPt optimally colors the 7-pt relaxation of a 3D grid.
func ColorSevenPt(g *grid.Grid3D) (core.Coloring, int64) {
	s := grid.SevenPt{G: g}
	maxcolor := bounds.MaxPair(s)
	c := core.NewColoring(s.Len())
	for v := 0; v < s.Len(); v++ {
		if s.Parity(v) == 0 {
			c.Start[v] = 0
		} else {
			c.Start[v] = maxcolor - s.Weight(v)
		}
	}
	return c, maxcolor
}
