package grid

import (
	"fmt"
	"math"
	"slices"

	"stencilivc/internal/core"
)

// Grid2D is an X×Y grid whose conflict graph is the 9-pt 2D stencil:
// vertices (i,j) and (i',j') are adjacent iff |i−i'| ≤ 1 and |j−j'| ≤ 1
// (and they differ). Vertex ids are row-major: id = j*X + i.
type Grid2D struct {
	X, Y int
	// W holds the vertex weights in row-major order; len(W) == X*Y.
	W []int64
	// total caches the weight sum, maintained by Set and the
	// constructors, so the no-overflow guarantee (Σw fits in int64,
	// hence every interval end start+w a solver can produce does too)
	// survives mutation. Direct writes to W leave it stale.
	total int64
}

var _ core.Graph = (*Grid2D)(nil)

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
	return &Grid2D{X: x, Y: y, W: make([]int64, cells)}, nil
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
	g, err := wrap2D(x, y, weights)
	if err != nil {
		return nil, err
	}
	g.W = slices.Clone(weights)
	return g, nil
}

// wrap2D is FromWeights2D without the copy: the grid keeps weights
// itself, so it suits only a caller that holds the slice alone (Read).
func wrap2D(x, y int, weights []int64) (*Grid2D, error) {
	cells, err := cells2D(x, y)
	if err != nil {
		return nil, err
	}
	total, err := checkWeights(cells, weights)
	if err != nil {
		return nil, err
	}
	return &Grid2D{X: x, Y: y, W: weights, total: total}, nil
}

// checkWeights rejects a weight count other than cells, negative
// weights, and totals that overflow int64, returning the total for the
// grid's running-sum cache.
func checkWeights(cells int, weights []int64) (int64, error) {
	if len(weights) != cells {
		return 0, fmt.Errorf("grid: want %d weights, got %d", cells, len(weights))
	}
	var total int64
	for _, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("grid: negative weight %d", w)
		}
		if total > math.MaxInt64-w {
			return 0, fmt.Errorf("grid: total weight overflows int64 (interval ends would wrap)")
		}
		total += w
	}
	return total, nil
}

// Len returns the number of vertices X*Y.
func (g *Grid2D) Len() int { return g.X * g.Y }

// Weight returns the weight of vertex v.
func (g *Grid2D) Weight(v int) int64 { return g.W[v] }

// ID returns the vertex id of cell (i,j).
func (g *Grid2D) ID(i, j int) int { return j*g.X + i }

// Coords returns the (i,j) cell of vertex v.
func (g *Grid2D) Coords(v int) (i, j int) { return v % g.X, v / g.X }

// At returns the weight of cell (i,j).
func (g *Grid2D) At(i, j int) int64 { return g.W[g.ID(i, j)] }

// Set assigns the weight of cell (i,j). Negative weights, and updates
// that would push the grid's running total weight past int64 (wrapping
// solver interval arithmetic), panic — exactly the assignments the
// constructors reject, so any grid buildable via FromWeights2D is
// buildable via Set. Direct writes to W bypass the guard and leave the
// cached total stale.
func (g *Grid2D) Set(i, j int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("grid: negative weight %d", w))
	}
	id := g.ID(i, j)
	rest := g.total - g.W[id]
	if rest > math.MaxInt64-w {
		panic(fmt.Sprintf("grid: weight %d overflows the grid's total weight", w))
	}
	g.total = rest + w
	g.W[id] = w
}

// Neighbors appends the 9-pt stencil neighbors of v (up to 8) to buf.
func (g *Grid2D) Neighbors(v int, buf []int) []int {
	i, j := g.Coords(v)
	for dj := -1; dj <= 1; dj++ {
		nj := j + dj
		if nj < 0 || nj >= g.Y {
			continue
		}
		for di := -1; di <= 1; di++ {
			ni := i + di
			if ni < 0 || ni >= g.X || (di == 0 && dj == 0) {
				continue
			}
			buf = append(buf, nj*g.X+ni)
		}
	}
	return buf
}

// Lattice returns the weight slice and the extents X, Y, 1: a 9-pt grid
// is a lattice one layer deep (core.Lattice).
func (g *Grid2D) Lattice() ([]int64, int, int, int) { return g.W, g.X, g.Y, 1 }

// Degree returns the 9-pt degree of v in O(1) from its coordinates.
func (g *Grid2D) Degree(v int) int {
	i, j := g.Coords(v)
	return span(i, g.X)*span(j, g.Y) - 1
}

// span returns how many cells the closed range [c-1, c+1] covers inside
// a dimension of extent n.
func span(c, n int) int {
	s := 3
	if c == 0 {
		s--
	}
	if c == n-1 {
		s--
	}
	return s
}

var (
	_ core.Lattice     = (*Grid2D)(nil)
	_ core.DegreeGraph = (*Grid2D)(nil)
)

// FivePt is the 5-pt relaxation of a Grid2D: only the 4 axis neighbors
// conflict. It is bipartite (checkerboard), which is what makes the 5-pt
// relaxation polynomial (Section III-B). It shares the weight storage of
// the underlying grid.
type FivePt struct {
	G *Grid2D
}

var _ core.Graph = FivePt{}

// Len returns the number of vertices.
func (f FivePt) Len() int { return f.G.Len() }

// Weight returns the weight of vertex v.
func (f FivePt) Weight(v int) int64 { return f.G.W[v] }

// Neighbors appends the 5-pt (axis-only) neighbors of v to buf.
func (f FivePt) Neighbors(v int, buf []int) []int {
	g := f.G
	i, j := g.Coords(v)
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
	return buf
}

// Parity returns the checkerboard side of vertex v ((i+j) mod 2), the
// natural bipartition of the 5-pt relaxation.
func (f FivePt) Parity(v int) int {
	i, j := f.G.Coords(v)
	return (i + j) % 2
}

// Degree returns the 5-pt degree of v in O(1) from its coordinates.
func (f FivePt) Degree(v int) int {
	g := f.G
	i, j := g.Coords(v)
	return span(i, g.X) + span(j, g.Y) - 2
}

var _ core.DegreeGraph = FivePt{}

// Row returns the weights of row j as a chain, in increasing i.
func (g *Grid2D) Row(j int) []int64 {
	return g.W[j*g.X : (j+1)*g.X]
}

// Clone returns a deep copy of the grid.
func (g *Grid2D) Clone() *Grid2D {
	c := MustGrid2D(g.X, g.Y)
	copy(c.W, g.W)
	c.total = g.total
	return c
}

// String summarizes the grid's shape and total weight.
func (g *Grid2D) String() string {
	return fmt.Sprintf("Grid2D(%dx%d, total=%d)", g.X, g.Y, core.TotalWeight(g))
}
