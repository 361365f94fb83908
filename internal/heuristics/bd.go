package heuristics

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/special"
)

func init() {
	MustRegister(Descriptor{
		Name: BD, Dims: DimBoth, Paper: true, Order: 6,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			c, _, err := decompose(s, opts)
			return c, err
		},
	})
	MustRegister(Descriptor{Name: BDP, Dims: DimBoth, Paper: true, Order: 7, Fn: decomposePost})
}

// decompose is BD (Section V-B) on a lattice of either depth, built one
// level at a time. Each row — a chain, hence bipartite — is colored
// optimally with the chain algorithm; RC, the largest maxcolor of a
// layer's rows, is itself a lower bound on the optimum (a row is a
// subgraph). Even rows keep their colors in [0, RC) and odd rows are
// lifted by RC into [RC, 2RC): rows two apart are not adjacent, so rows
// never conflict and a 9-pt grid is colored within 2·RC, a
// 2-approximation. A 27-pt grid repeats the step one level up: LC is the
// largest maxcolor of a layer so colored (each within 2× its layer's
// optimum, which bounds the global optimum) and odd layers are lifted by
// LC, a 4-approximation.
//
// The second return value is the largest RC, a proven lower bound in
// either dimension. Cancellation is polled once per row, and the chain
// placements reach opts' sinks through the placement kernel's flush.
func decompose(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, int64, error) {
	w, x, y, _ := s.Lattice()
	c := core.Coloring{Start: make([]int64, len(w))}
	var bound, lc int64
	for layer := 0; layer < len(w); layer += x * y {
		var rc, oddMC int64
		for j := 0; j < y; j++ {
			if err := opts.Err(); err != nil {
				return core.Coloring{}, 0, err
			}
			row := layer + j*x
			mc := special.ColorChain(c.Start[row:row+x], w[row:row+x])
			rc = max(rc, mc)
			if j%2 == 1 {
				oddMC = max(oddMC, mc)
			}
		}
		liftOdd(c.Start[layer:layer+x*y], x, rc)
		bound = max(bound, rc)
		// A chain's coloring ends exactly at its maxcolor, so the lifted
		// layer's ends at RC plus its largest odd row's (at RC when it
		// has one row).
		lc = max(lc, rc+oddMC)
	}
	var chains core.FitScratch
	chains.AddPlacements(int64(len(w)))
	chains.Flush(opts)
	liftOdd(c.Start, x*y, lc)
	return c, bound, nil
}

// liftOdd adds lift to the starts of every odd run of n consecutive
// vertices: BD's odd rows (n = X, lifted by RC) and its odd layers
// (n = X·Y, lifted by LC) alike.
func liftOdd(start []int64, n int, lift int64) {
	for run := n; run < len(start); run += 2 * n {
		for v := run; v < run+n; v++ {
			start[v] += lift
		}
	}
}

// decomposePost is BDP (Section V-B) on either stencil: BD followed by
// the greedy recoloring pass in postOrder. The decompose and post
// phases record separate flight spans.
func decomposePost(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
	sp := opts.FlightCtx().Start("BDP/decompose")
	c, _, err := decompose(s, opts)
	sp.End()
	if err != nil {
		return core.Coloring{}, err
	}
	sp = opts.FlightCtx().Start("BDP/post")
	err = recolor(s, c, postOrder(s, c, s.CliqueBlocks()), opts)
	sp.End()
	if err != nil {
		return core.Coloring{}, err
	}
	return c, nil
}

// postOrder builds BDP's recoloring order (Section V-B): vertices are
// listed as members of the clique blocks sorted by non-increasing total
// weight; within a block they are taken in increasing order of the lower
// end of their current interval (stably, so equal starts keep the stored
// member order); each vertex appears at its first listing.
func postOrder(g core.Graph, c core.Coloring, cv grid.Cover) []int {
	order := make([]int, 0, g.Len())
	seen := make([]bool, g.Len())
	var members []int
	for _, b := range cv.ByWeightDesc() {
		members = members[:0]
		a := cv.Anchor(b)
		for _, off := range cv.Offsets {
			v := a + off
			if seen[v] {
				continue
			}
			// Stable insertion by start: v goes after every member whose
			// start is not larger.
			members = append(members, v)
			for i := len(members) - 1; i > 0 && c.Start[members[i-1]] > c.Start[v]; i-- {
				members[i], members[i-1] = members[i-1], v
			}
		}
		for _, v := range members {
			seen[v] = true
			order = append(order, v)
		}
	}
	for v := 0; v < g.Len(); v++ { // stragglers on degenerate grids
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}

// recolor compacts a complete valid coloring in place: each vertex in
// order is lifted out and re-placed at its lowest feasible start. Because
// the vertex's old start remains feasible, starts never increase, so the
// result is valid with maxcolor no larger than the input's. Cancellation
// is polled every core.CtxCheckInterval vertices; on cancellation the
// coloring may be left partially compacted but is abandoned by callers.
func recolor(g core.Graph, c core.Coloring, order []int, opts *core.SolveOptions) error {
	var s core.FitScratch
	s.Bind(g)
	defer s.Flush(opts)
	for i, v := range order {
		if i%core.CtxCheckInterval == 0 {
			if err := opts.Err(); err != nil {
				return err
			}
		}
		c.Start[v] = core.Unset
		c.Start[v] = s.Place(c, v)
	}
	return nil
}
