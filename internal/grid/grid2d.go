package grid

import (
	"fmt"
	"math"

	"stencilivc/internal/core"
)

// Grid2D is an X×Y grid whose conflict graph is the 9-pt 2D stencil:
// vertices (i,j) and (i',j') are adjacent iff |i−i'| ≤ 1 and |j−j'| ≤ 1
// (and they differ). Vertex ids are row-major: id = j*X + i. It is the
// 27-pt stencil one layer deep and shares Grid3D's stencil methods,
// with Z = 1. The grid owns its weights: Set and the constructors write
// them, Weight and At read one, and Lattice returns the slice for
// reading. Its extents are fixed at construction and read through X, Y
// and Z.
type Grid2D struct {
	lattice
}

// NewGrid2D allocates a zero-weight X×Y grid. Dimensions must be >= 1.
// Construction is overflow-safe: the per-axis caps are checked before
// the product X*Y is ever computed, so dimensions up to math.MaxInt are
// rejected with an error instead of wrapping into a short (or negative)
// weight slice and corrupting every derived vertex id.
func NewGrid2D(x, y int) (*Grid2D, error) {
	cells, err := cells2D(x, y)
	if err != nil {
		return nil, err
	}
	return &Grid2D{lattice{x, y, 1, weightStore{w: make([]int64, cells)}}}, nil
}

// cells2D validates 2D dimensions and returns the cell count X*Y
// without allocating anything.
func cells2D(x, y int) (int, error) {
	if x < 1 || y < 1 {
		return 0, fmt.Errorf("grid: invalid 2D dimensions %dx%d", x, y)
	}
	// Axis caps first: with both axes <= 2^20 the product fits easily,
	// so the x*y below can never overflow. checkedCells is belt and
	// braces should the caps ever be raised.
	if x > 1<<20 || y > 1<<20 {
		return 0, fmt.Errorf("grid: 2D dimensions %dx%d too large", x, y)
	}
	cells, err := checkedCells(x, y, 1)
	if err != nil {
		return 0, err
	}
	if cells > 1<<28 {
		return 0, fmt.Errorf("grid: 2D dimensions %dx%d too large", x, y)
	}
	return cells, nil
}

// checkedCells multiplies grid dimensions with explicit overflow
// checks, returning an error instead of a wrapped product.
func checkedCells(dims ...int) (int, error) {
	cells := 1
	for _, d := range dims {
		if d > 0 && cells > math.MaxInt/d {
			return 0, fmt.Errorf("grid: dimension product overflows int")
		}
		cells *= d
	}
	return cells, nil
}

// MustGrid2D is NewGrid2D that panics on error.
func MustGrid2D(x, y int) *Grid2D {
	g, err := NewGrid2D(x, y)
	if err != nil {
		panic(err)
	}
	return g
}

// FromWeights2D builds a grid from a row-major weight slice
// (weights[j*x+i] is the weight of cell (i,j)). The slice is copied.
// Weight sets whose total overflows int64 are rejected: the total
// bounds every interval end (start + w) a solver can produce, so a
// finite total is what keeps downstream arithmetic exact. Every check
// runs before the grid is allocated, so a request naming huge
// dimensions with too few weights costs nothing.
func FromWeights2D(x, y int, weights []int64) (*Grid2D, error) {
	cells, err := cells2D(x, y)
	if err != nil {
		return nil, err
	}
	ws, err := copyWeights(cells, weights)
	if err != nil {
		return nil, err
	}
	return &Grid2D{lattice{x, y, 1, ws}}, nil
}

// Dims returns 2.
func (g *Grid2D) Dims() int { return 2 }

// ID returns the vertex id of cell (i,j). A cell outside the grid
// panics.
func (g *Grid2D) ID(i, j int) int { return g.id(i, j, 0) }

// Coords returns the (i,j) cell of vertex v.
func (g *Grid2D) Coords(v int) (i, j int) { return v % g.x, v / g.x }

// At returns the weight of cell (i,j). A cell outside the grid panics.
func (g *Grid2D) At(i, j int) int64 { return g.w[g.ID(i, j)] }

// Set assigns the weight of cell (i,j). A cell outside the grid, a
// negative weight, and an update that would push the grid's total
// weight past int64 (wrapping solver interval arithmetic) panic, and
// leave the grid unchanged. The last two are exactly the assignments
// the constructors reject, so any grid buildable via FromWeights2D is
// buildable via Set.
func (g *Grid2D) Set(i, j int, w int64) { g.set(g.ID(i, j), w) }

// FivePt is the 5-pt relaxation of a Grid2D: only the 4 axis neighbors
// conflict. It is bipartite (checkerboard), which is what makes the 5-pt
// relaxation polynomial (Section III-B). It shares the weight storage of
// the underlying grid.
type FivePt struct {
	G *Grid2D
}

var _ core.DegreeGraph = FivePt{}

// Len returns the number of vertices.
func (f FivePt) Len() int { return f.G.Len() }

// Weight returns the weight of vertex v.
func (f FivePt) Weight(v int) int64 { return f.G.w[v] }

// Neighbors appends the 5-pt (axis-only) neighbors of v to buf.
func (f FivePt) Neighbors(v int, buf []int) []int { return f.G.axisNeighbors(v, buf) }

// Parity returns the checkerboard side of vertex v ((i+j) mod 2), the
// natural bipartition of the 5-pt relaxation.
func (f FivePt) Parity(v int) int { return f.G.parity(v) }

// Degree returns the 5-pt degree of v in O(1) from its coordinates.
func (f FivePt) Degree(v int) int { return f.G.axisDegree(v) }

// Clone returns a deep copy of the grid.
func (g *Grid2D) Clone() *Grid2D {
	return &Grid2D{lattice{g.x, g.y, 1, g.clone()}}
}

// String summarizes the grid's shape and total weight.
func (g *Grid2D) String() string {
	return fmt.Sprintf("Grid2D(%dx%d, total=%d)", g.x, g.y, g.total)
}
