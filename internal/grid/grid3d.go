package grid

import (
	"fmt"

	"stencilivc/internal/core"
)

// Grid3D is an X×Y×Z grid whose conflict graph is the 27-pt 3D stencil:
// vertices (i,j,k) and (i',j',k') are adjacent iff each coordinate differs
// by at most 1 (and they differ). Vertex ids are x-fastest:
// id = (k*Y + j)*X + i. The grid owns its weights, and fixes its
// extents, as Grid2D does.
type Grid3D struct {
	lattice
}

// NewGrid3D allocates a zero-weight X×Y×Z grid. Dimensions must be >= 1.
// Construction is overflow-safe the same way NewGrid2D is: per-axis
// caps are checked before the product X*Y*Z is computed, so dimensions
// up to math.MaxInt error out instead of wrapping into a corrupt index
// space.
func NewGrid3D(x, y, z int) (*Grid3D, error) {
	cells, err := cells3D(x, y, z)
	if err != nil {
		return nil, err
	}
	return &Grid3D{lattice{x: x, y: y, z: z, weightStore: weightStore{w: make([]int64, cells)}}}, nil
}

// cells3D validates 3D dimensions and returns the cell count X*Y*Z
// without allocating anything.
func cells3D(x, y, z int) (int, error) {
	if x < 1 || y < 1 || z < 1 {
		return 0, fmt.Errorf("grid: invalid 3D dimensions %dx%dx%d", x, y, z)
	}
	if x > 1<<16 || y > 1<<16 || z > 1<<16 {
		return 0, fmt.Errorf("grid: 3D dimensions %dx%dx%d too large", x, y, z)
	}
	cells, err := checkedCells(x, y, z)
	if err != nil {
		return 0, err
	}
	if cells > 1<<27 {
		return 0, fmt.Errorf("grid: 3D dimensions %dx%dx%d too large", x, y, z)
	}
	return cells, nil
}

// MustGrid3D is NewGrid3D that panics on error.
func MustGrid3D(x, y, z int) *Grid3D {
	g, err := NewGrid3D(x, y, z)
	if err != nil {
		panic(err)
	}
	return g
}

// FromWeights3D builds a grid from an x-fastest weight slice. The slice is
// copied. It checks what FromWeights2D checks, also before allocating.
func FromWeights3D(x, y, z int, weights []int64) (*Grid3D, error) {
	cells, err := cells3D(x, y, z)
	if err != nil {
		return nil, err
	}
	ws, err := copyWeights(cells, weights)
	if err != nil {
		return nil, err
	}
	return &Grid3D{lattice{x: x, y: y, z: z, weightStore: ws}}, nil
}

// Dims returns 3.
func (g *Grid3D) Dims() int { return 3 }

// ID returns the vertex id of cell (i,j,k). A cell outside the grid
// panics.
func (g *Grid3D) ID(i, j, k int) int { return g.id(i, j, k) }

// Coords returns the (i,j,k) cell of vertex v.
func (g *Grid3D) Coords(v int) (i, j, k int) { return g.coords(v) }

// At returns the weight of cell (i,j,k). A cell outside the grid
// panics.
func (g *Grid3D) At(i, j, k int) int64 { return g.w[g.id(i, j, k)] }

// Set assigns the weight of cell (i,j,k). It panics, leaving the grid
// unchanged, where Grid2D.Set does: on a cell outside the grid and on
// the assignments FromWeights3D rejects.
func (g *Grid3D) Set(i, j, k int, w int64) { g.set(g.id(i, j, k), w) }

// SevenPt is the 7-pt relaxation of a Grid3D: only the 6 axis neighbors
// conflict. Like the 5-pt case it is bipartite on (i+j+k) parity, which
// makes the 7-pt relaxation polynomial (Section III-B).
type SevenPt struct {
	G *Grid3D
}

var _ core.DegreeGraph = SevenPt{}

// Len returns the number of vertices.
func (s SevenPt) Len() int { return s.G.Len() }

// Weight returns the weight of vertex v.
func (s SevenPt) Weight(v int) int64 { return s.G.w[v] }

// Neighbors appends the 7-pt (axis-only) neighbors of v to buf.
func (s SevenPt) Neighbors(v int, buf []int) []int { return s.G.axisNeighbors(v, buf) }

// Parity returns (i+j+k) mod 2, the natural bipartition of the 7-pt
// relaxation.
func (s SevenPt) Parity(v int) int { return s.G.parity(v) }

// Degree returns the 7-pt degree of v in O(1) from its coordinates.
func (s SevenPt) Degree(v int) int { return s.G.axisDegree(v) }

// Layer returns layer k of the 3D grid as an independent 2D grid: it
// holds a copy of the layer's weights, so a Set on either grid leaves
// the other, and its total, unchanged.
func (g *Grid3D) Layer(k int) *Grid2D {
	n := g.x * g.y
	// A layer of a checked store passes the same checks.
	ws, _ := copyWeights(n, g.w[k*n:(k+1)*n])
	return &Grid2D{lattice{x: g.x, y: g.y, z: 1, weightStore: ws}}
}

// Clone returns a deep copy of the grid.
func (g *Grid3D) Clone() *Grid3D {
	return &Grid3D{lattice{x: g.x, y: g.y, z: g.z, weightStore: g.clone()}}
}

// String summarizes the grid's shape and total weight.
func (g *Grid3D) String() string {
	return fmt.Sprintf("Grid3D(%dx%dx%d, total=%d)", g.x, g.y, g.z, g.total)
}
