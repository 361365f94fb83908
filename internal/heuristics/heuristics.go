package heuristics

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/order"
)

// Algorithm names a coloring heuristic from the paper.
type Algorithm string

// The seven algorithms compared in Sections VI and VII.
const (
	GLL Algorithm = "GLL" // Greedy Line-by-Line
	GZO Algorithm = "GZO" // Greedy Z-Order
	GLF Algorithm = "GLF" // Greedy Largest First
	GKF Algorithm = "GKF" // Greedy Largest Clique First
	SGK Algorithm = "SGK" // Smart Greedy Largest Clique First
	BD  Algorithm = "BD"  // Bipartite Decomposition (2-approx 2D, 4-approx 3D)
	BDP Algorithm = "BDP" // Bipartite Decomposition + Post optimization

	// BDL is an extension beyond the paper (see layeredPost): per-layer
	// BDP with a global post pass. 3D only; registered with Paper=false so
	// the All() evaluation matrix stays the paper's seven algorithms.
	BDL Algorithm = "BDL"
)

func init() {
	MustRegister(Descriptor{
		Name: GLL, Dims: DimBoth, Paper: true, Order: 1,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.GreedyColorOpts(s, s.LineOrder(), opts)
		},
	})
	MustRegister(Descriptor{
		Name: GZO, Dims: DimBoth, Paper: true, Order: 2,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.GreedyColorOpts(s, s.ZOrder(), opts)
		},
	})
	MustRegister(Descriptor{
		Name: GLF, Dims: DimBoth, Paper: true, Order: 3,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return core.GreedyColorOpts(s, order.ByWeightDesc(s), opts)
		},
	})
}
