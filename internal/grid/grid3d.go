package grid

import (
	"fmt"
	"math"
	"slices"

	"stencilivc/internal/core"
)

// Grid3D is an X×Y×Z grid whose conflict graph is the 27-pt 3D stencil:
// vertices (i,j,k) and (i',j',k') are adjacent iff each coordinate differs
// by at most 1 (and they differ). Vertex ids are x-fastest:
// id = (k*Y + j)*X + i.
type Grid3D struct {
	X, Y, Z int
	// W holds the vertex weights, x-fastest; len(W) == X*Y*Z.
	W []int64
	// total caches the weight sum, as in Grid2D. Direct writes to W —
	// including Set through a Layer view — leave it stale.
	total int64
}

var _ core.Graph = (*Grid3D)(nil)

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
	return &Grid3D{X: x, Y: y, Z: z, W: make([]int64, cells)}, nil
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
	total, err := checkWeights(cells, weights)
	if err != nil {
		return nil, err
	}
	return &Grid3D{X: x, Y: y, Z: z, W: slices.Clone(weights), total: total}, nil
}

// Len returns the number of vertices X*Y*Z.
func (g *Grid3D) Len() int { return g.X * g.Y * g.Z }

// Weight returns the weight of vertex v.
func (g *Grid3D) Weight(v int) int64 { return g.W[v] }

// ID returns the vertex id of cell (i,j,k).
func (g *Grid3D) ID(i, j, k int) int { return (k*g.Y+j)*g.X + i }

// Coords returns the (i,j,k) cell of vertex v.
func (g *Grid3D) Coords(v int) (i, j, k int) {
	i = v % g.X
	v /= g.X
	j = v % g.Y
	k = v / g.Y
	return
}

// At returns the weight of cell (i,j,k).
func (g *Grid3D) At(i, j, k int) int64 { return g.W[g.ID(i, j, k)] }

// Set assigns the weight of cell (i,j,k). Negative weights, and updates
// that would push the grid's running total weight past int64, panic —
// the same assignments FromWeights3D rejects; direct writes to W bypass
// the guard and leave the cached total stale.
func (g *Grid3D) Set(i, j, k int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("grid: negative weight %d", w))
	}
	id := g.ID(i, j, k)
	rest := g.total - g.W[id]
	if rest > math.MaxInt64-w {
		panic(fmt.Sprintf("grid: weight %d overflows the grid's total weight", w))
	}
	g.total = rest + w
	g.W[id] = w
}

// Neighbors appends the 27-pt stencil neighbors of v (up to 26) to buf.
func (g *Grid3D) Neighbors(v int, buf []int) []int {
	i, j, k := g.Coords(v)
	for dk := -1; dk <= 1; dk++ {
		nk := k + dk
		if nk < 0 || nk >= g.Z {
			continue
		}
		for dj := -1; dj <= 1; dj++ {
			nj := j + dj
			if nj < 0 || nj >= g.Y {
				continue
			}
			for di := -1; di <= 1; di++ {
				ni := i + di
				if ni < 0 || ni >= g.X || (di == 0 && dj == 0 && dk == 0) {
					continue
				}
				buf = append(buf, (nk*g.Y+nj)*g.X+ni)
			}
		}
	}
	return buf
}

// Lattice returns the weight slice and the extents X, Y, Z
// (core.Lattice).
func (g *Grid3D) Lattice() ([]int64, int, int, int) { return g.W, g.X, g.Y, g.Z }

// Degree returns the 27-pt degree of v in O(1) from its coordinates.
func (g *Grid3D) Degree(v int) int {
	i, j, k := g.Coords(v)
	return span(i, g.X)*span(j, g.Y)*span(k, g.Z) - 1
}

var (
	_ core.Lattice     = (*Grid3D)(nil)
	_ core.DegreeGraph = (*Grid3D)(nil)
)

// SevenPt is the 7-pt relaxation of a Grid3D: only the 6 axis neighbors
// conflict. Like the 5-pt case it is bipartite on (i+j+k) parity, which
// makes the 7-pt relaxation polynomial (Section III-B).
type SevenPt struct {
	G *Grid3D
}

var _ core.Graph = SevenPt{}

// Len returns the number of vertices.
func (s SevenPt) Len() int { return s.G.Len() }

// Weight returns the weight of vertex v.
func (s SevenPt) Weight(v int) int64 { return s.G.W[v] }

// Neighbors appends the 7-pt (axis-only) neighbors of v to buf.
func (s SevenPt) Neighbors(v int, buf []int) []int {
	g := s.G
	i, j, k := g.Coords(v)
	if i > 0 {
		buf = append(buf, v-1)
	}
	if i < g.X-1 {
		buf = append(buf, v+1)
	}
	if j > 0 {
		buf = append(buf, v-g.X)
	}
	if j < g.Y-1 {
		buf = append(buf, v+g.X)
	}
	if k > 0 {
		buf = append(buf, v-g.X*g.Y)
	}
	if k < g.Z-1 {
		buf = append(buf, v+g.X*g.Y)
	}
	return buf
}

// Parity returns (i+j+k) mod 2, the natural bipartition of the 7-pt
// relaxation.
func (s SevenPt) Parity(v int) int {
	i, j, k := s.G.Coords(v)
	return (i + j + k) % 2
}

// Degree returns the 7-pt degree of v in O(1) from its coordinates.
func (s SevenPt) Degree(v int) int {
	g := s.G
	i, j, k := g.Coords(v)
	return span(i, g.X) + span(j, g.Y) + span(k, g.Z) - 3
}

var _ core.DegreeGraph = SevenPt{}

// Layer returns layer k of the 3D grid as a 2D grid sharing the same
// weight storage (mutations are visible in both). The view carries its
// own running total (the layer's slice sum, a subtotal of the parent's,
// so its Set guard can only be stricter); Set through the view updates
// the view's total but leaves the parent's cached total stale, like any
// direct write to W.
func (g *Grid3D) Layer(k int) *Grid2D {
	base := k * g.X * g.Y
	w := g.W[base : base+g.X*g.Y]
	var total int64
	for _, wv := range w {
		total += wv
	}
	return &Grid2D{X: g.X, Y: g.Y, W: w, total: total}
}

// Clone returns a deep copy of the grid.
func (g *Grid3D) Clone() *Grid3D {
	c := MustGrid3D(g.X, g.Y, g.Z)
	copy(c.W, g.W)
	c.total = g.total
	return c
}

// String summarizes the grid's shape and total weight.
func (g *Grid3D) String() string {
	return fmt.Sprintf("Grid3D(%dx%dx%d, total=%d)", g.X, g.Y, g.Z, core.TotalWeight(g))
}
