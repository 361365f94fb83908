package heuristics

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

func init() {
	MustRegister(Descriptor{
		// BDL sits after the paper's seven (Order 8) and outside the paper
		// set, so All() and the evaluation matrix never pick it up; the
		// registry still dispatches it by name and rejects 2D instances
		// through the dimension mask.
		Name: BDL, Dims: Dim3D, Paper: false, Order: 8, Fn: layeredPost,
	})
}

// layeredPost is BDL, an extension beyond the paper addressing its
// closing question ("can we design approximation algorithms for coloring
// 27-pt stencils with a ratio better than 4?") on the practical side:
// instead of coloring each z-layer with plain BD (2-approx per layer),
// color it with the post-optimized BDP, lift odd layers by the largest
// layer maxcolor as BD does, and finish with a global recoloring pass.
//
// The worst-case ratio stays 4 (each layer's BDP is still only guaranteed
// within 2 of its layer optimum, and the layer-chain doubling is tight in
// the worst case), but the practical quality is consistently at or below
// BD's — the recoloring passes never increase maxcolor — which is exactly
// the gap the open question is about. Each layer's BDP records its own
// decompose and post spans; cancellation is polled per row and inside
// every recoloring pass.
func layeredPost(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
	g := s.(*grid.Grid3D)
	c := core.Coloring{Start: make([]int64, g.Len())}
	var lc int64
	for k := 0; k < g.Z(); k++ {
		layer := g.Layer(k)
		lcol, err := decomposePost(layer, opts)
		if err != nil {
			return core.Coloring{}, err
		}
		copy(c.Start[k*layer.Len():], lcol.Start)
		lc = max(lc, lcol.MaxColor(layer))
	}
	liftOdd(c.Start, g.X()*g.Y(), lc)
	if err := recolor(g, c, postOrder(g, c, g.CliqueBlocks()), opts); err != nil {
		return core.Coloring{}, err
	}
	return c, nil
}
