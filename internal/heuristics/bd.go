package heuristics

import (
	"fmt"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/special"
)

func init() {
	MustRegister(Descriptor{
		Name: BD, Dims: DimBoth, Paper: true, Order: 6,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			switch g := s.(type) {
			case *grid.Grid2D:
				c, _, err := BipartiteDecomposition2DOpts(g, opts)
				return c, err
			case *grid.Grid3D:
				c, _, err := BipartiteDecomposition3DOpts(g, opts)
				return c, err
			}
			return core.Coloring{}, fmt.Errorf("BD: unsupported stencil type %T", s)
		},
	})
	MustRegister(Descriptor{
		Name: BDP, Dims: DimBoth, Paper: true, Order: 7,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			switch g := s.(type) {
			case *grid.Grid2D:
				c, _, err := BipartiteDecompositionPost2DOpts(g, opts)
				return c, err
			case *grid.Grid3D:
				c, _, err := BipartiteDecompositionPost3DOpts(g, opts)
				return c, err
			}
			return core.Coloring{}, fmt.Errorf("BDP: unsupported stencil type %T", s)
		},
	})
}

// BipartiteDecomposition2D is BD (Section V-B), a 2-approximation for
// 2DS-IVC. Each row — a chain, hence bipartite — is colored optimally with
// the chain algorithm; RC, the maximum color used by any row, is itself a
// lower bound on the optimum (a row is a subgraph). Even rows keep their
// colors in [0, RC) and odd rows are lifted by RC into [RC, 2RC), so rows
// never conflict and maxcolor <= 2·RC <= 2·maxcolor*.
//
// The second return value is RC, the proven lower bound.
func BipartiteDecomposition2D(g *grid.Grid2D) (core.Coloring, int64) {
	c, rc, _ := BipartiteDecomposition2DOpts(g, nil) // cannot fail without a context
	return c, rc
}

// BipartiteDecomposition2DOpts is BipartiteDecomposition2D threaded with
// SolveOptions: the pass polls for cancellation once per row and flushes
// its chain placements through the placement kernel into opts' sinks,
// returning the context's error (and no coloring) if the solve is
// abandoned mid-decomposition.
func BipartiteDecomposition2DOpts(g *grid.Grid2D, opts *core.SolveOptions) (core.Coloring, int64, error) {
	c := core.NewColoring(g.Len())
	var rc int64
	for j := 0; j < g.Y; j++ {
		if err := opts.Err(); err != nil {
			return core.Coloring{}, 0, err
		}
		starts, rowMC := special.ColorChain(g.Row(j))
		rc = max(rc, rowMC)
		for i := 0; i < g.X; i++ {
			c.Start[g.ID(i, j)] = starts[i]
		}
	}
	var chains core.FitScratch
	chains.AddPlacements(int64(g.Len()))
	chains.Flush(opts, 0)
	// Each row's colors live in [0, its own maxcolor) ⊆ [0, RC); lifting
	// odd rows by RC separates every cross-row conflict (rows two apart
	// are non-adjacent in the 9-pt stencil).
	for j := 1; j < g.Y; j += 2 {
		for i := 0; i < g.X; i++ {
			c.Start[g.ID(i, j)] += rc
		}
	}
	return c, rc, nil
}

// BipartiteDecomposition3D is BD for 3DS-IVC, a 4-approximation
// (Section V-B): each z-layer is colored with the 2D decomposition (each
// within a factor 2 of its layer optimum, which bounds the global
// optimum), LC is the maximum maxcolor over the layers, and odd layers are
// lifted by LC. The second return value is the best per-layer RC, a valid
// lower bound on the 3D optimum.
func BipartiteDecomposition3D(g *grid.Grid3D) (core.Coloring, int64) {
	c, lb, _ := BipartiteDecomposition3DOpts(g, nil)
	return c, lb
}

// BipartiteDecomposition3DOpts is BipartiteDecomposition3D with options;
// cancellation is polled per layer (and per row inside each layer).
func BipartiteDecomposition3DOpts(g *grid.Grid3D, opts *core.SolveOptions) (core.Coloring, int64, error) {
	c := core.NewColoring(g.Len())
	var lc, lb int64
	layerCol := make([]core.Coloring, g.Z)
	for k := 0; k < g.Z; k++ {
		layer := g.Layer(k)
		lcol, rc, err := BipartiteDecomposition2DOpts(layer, opts)
		if err != nil {
			return core.Coloring{}, 0, err
		}
		layerCol[k] = lcol
		lb = max(lb, rc)
		lc = max(lc, lcol.MaxColor(layer))
	}
	for k := 0; k < g.Z; k++ {
		base := k * g.X * g.Y
		var lift int64
		if k%2 == 1 {
			lift = lc
		}
		for v, s := range layerCol[k].Start {
			c.Start[base+v] = s + lift
		}
	}
	return c, lb, nil
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
		a := cv.Anchor[b]
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
	defer s.Flush(opts, 0)
	for i, v := range order {
		if i%core.CtxCheckInterval == 0 {
			if err := opts.Err(); err != nil {
				return err
			}
		}
		c.Start[v] = core.Unset
		c.Start[v] = s.Place(c, v, s.Neighbors(v))
	}
	return nil
}

// BipartiteDecompositionPost2D is BDP in 2D: BD followed by the greedy
// recoloring pass. The returned bound is BD's RC.
func BipartiteDecompositionPost2D(g *grid.Grid2D) (core.Coloring, int64) {
	c, rc, _ := BipartiteDecompositionPost2DOpts(g, nil)
	return c, rc
}

// BipartiteDecompositionPost2DOpts is BDP in 2D with options; the
// decompose and post phases are observed separately (stats phases and
// trace spans).
func BipartiteDecompositionPost2DOpts(g *grid.Grid2D, opts *core.SolveOptions) (core.Coloring, int64, error) {
	stop := core.StartPhase(opts, "BDP/decompose")
	c, rc, err := BipartiteDecomposition2DOpts(g, opts)
	stop()
	if err != nil {
		return core.Coloring{}, 0, err
	}
	stop = core.StartPhase(opts, "BDP/post")
	err = recolor(g, c, postOrder(g, c, g.CliqueBlocks()), opts)
	stop()
	if err != nil {
		return core.Coloring{}, 0, err
	}
	return c, rc, nil
}

// BipartiteDecompositionPost3D is BDP in 3D.
func BipartiteDecompositionPost3D(g *grid.Grid3D) (core.Coloring, int64) {
	c, lb, _ := BipartiteDecompositionPost3DOpts(g, nil)
	return c, lb
}

// BipartiteDecompositionPost3DOpts is BDP in 3D with options.
func BipartiteDecompositionPost3DOpts(g *grid.Grid3D, opts *core.SolveOptions) (core.Coloring, int64, error) {
	stop := core.StartPhase(opts, "BDP/decompose")
	c, lb, err := BipartiteDecomposition3DOpts(g, opts)
	stop()
	if err != nil {
		return core.Coloring{}, 0, err
	}
	stop = core.StartPhase(opts, "BDP/post")
	err = recolor(g, c, postOrder(g, c, g.CliqueBlocks()), opts)
	stop()
	if err != nil {
		return core.Coloring{}, 0, err
	}
	return c, lb, nil
}
