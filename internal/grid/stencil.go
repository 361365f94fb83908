package grid

import "stencilivc/internal/core"

// Stencil is the dimension-generic view of a stencil instance: the
// weighted lattice plus the iteration hooks the solver registry needs.
// Both Grid2D and Grid3D implement it, which is what lets one registry
// entry and one portfolio runner serve the 9-pt and 27-pt cases without
// the per-dimension switch blocks the package used to carry.
type Stencil interface {
	core.Lattice
	// Dims returns the dimensionality: 2 for a 9-pt grid, 3 for 27-pt.
	Dims() int
	// LineOrder returns the line-by-line traversal (GLL's visit order).
	LineOrder() []int
	// ZOrder returns the Morton-order traversal (GZO's visit order).
	ZOrder() []int
	// CliqueBlocks returns the compact clique cover driving GKF/SGK and
	// the BDP recoloring order: the K4/K8 blocks on non-degenerate grids,
	// with the K4s of the plane, chain pairs, or a lone vertex on
	// degenerate ones, so the block heuristics stay defined on 1×N (and
	// X×1×Z, 1×1×N etc.) instances.
	CliqueBlocks() Cover
	// Tiling partitions the grid into size-edged tiles (2D) or bricks
	// (3D) for the tile-parallel speculative solver.
	Tiling(size int) (*Tiling, error)
}

var (
	_ Stencil = (*Grid2D)(nil)
	_ Stencil = (*Grid3D)(nil)
)
