package grid

import "stencilivc/internal/core"

// Stencil is the dimension-generic view of a stencil instance: the
// weighted graph plus the iteration hooks the solver registry needs. Both
// Grid2D and Grid3D implement it, which is what lets one registry entry
// and one portfolio runner serve the 9-pt and 27-pt cases without the
// per-dimension switch blocks the package used to carry.
type Stencil interface {
	core.Graph
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

// Dims returns 2.
func (g *Grid2D) Dims() int { return 2 }

// LineOrder returns the row-major GLL traversal.
func (g *Grid2D) LineOrder() []int { return LineByLine2D(g) }

// ZOrder returns the Morton-order GZO traversal.
func (g *Grid2D) ZOrder() []int { return ZOrder2D(g) }

// CliqueBlocks returns the K4 blocks when both dimensions exceed 1,
// otherwise the edge pairs of the degenerate chain (or, on a 1×1 grid,
// the lone vertex).
func (g *Grid2D) CliqueBlocks() Cover { return cliqueCover(g.W, g.X, g.Y, 1) }

// Dims returns 3.
func (g *Grid3D) Dims() int { return 3 }

// LineOrder returns the plane-by-plane, row-major GLL traversal.
func (g *Grid3D) LineOrder() []int { return LineByLine3D(g) }

// ZOrder returns the Morton-order GZO traversal.
func (g *Grid3D) ZOrder() []int { return ZOrder3D(g) }

// CliqueBlocks returns the K8 blocks of a non-degenerate grid. A grid
// with a unit dimension falls back to the K4 blocks of its plane, in any
// orientation, and a doubly-degenerate grid to chain pairs.
func (g *Grid3D) CliqueBlocks() Cover { return cliqueCover(g.W, g.X, g.Y, g.Z) }
