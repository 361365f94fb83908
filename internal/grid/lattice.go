package grid

import (
	"fmt"

	"stencilivc/internal/core"
)

// lattice is the one implementation behind both grid types: the
// extents of an x×y×z box of cells with x-fastest ids, (k*y+j)*x+i, its
// weight store and the digest kept over both. Grid2D embeds it with
// z = 1, Grid3D with any z, so every method here serves the 9-pt
// stencil as the 27-pt stencil one layer deep.
type lattice struct {
	x, y, z int
	weightStore
	digest keptDigest
}

// X returns the grid's extent along x.
func (l *lattice) X() int { return l.x }

// Y returns the grid's extent along y.
func (l *lattice) Y() int { return l.y }

// Z returns the grid's extent along z: 1 for a 9-pt grid.
func (l *lattice) Z() int { return l.z }

// Len returns the number of vertices X*Y*Z.
func (l *lattice) Len() int { return l.x * l.y * l.z }

// Weight returns the weight of vertex v.
func (l *lattice) Weight(v int) int64 { return l.w[v] }

// Lattice returns the weight slice and the extents X, Y, Z, with Z = 1
// for a 9-pt grid (core.Lattice). The slice is the grid's own storage
// and is read-only; Set is the one way to change a weight. Result-cache
// soundness rests on that: a write through the slice would leave the
// kept Digest, and so every cache key of the grid, describing weights
// the grid no longer has.
func (l *lattice) Lattice() ([]int64, int, int, int) { return l.w, l.x, l.y, l.z }

// id returns the vertex id of cell (i,j,k). A cell outside the grid
// panics, so a caller's off-by-one fails instead of reaching another
// cell.
func (l *lattice) id(i, j, k int) int {
	if uint(i) >= uint(l.x) || uint(j) >= uint(l.y) || uint(k) >= uint(l.z) {
		panic(fmt.Sprintf("grid: cell (%d,%d,%d) outside the %dx%dx%d grid", i, j, k, l.x, l.y, l.z))
	}
	return (k*l.y+j)*l.x + i
}

// coords returns the (i,j,k) cell of vertex v. A one-layer grid skips
// the second division.
func (l *lattice) coords(v int) (i, j, k int) {
	if l.z == 1 {
		return v % l.x, v / l.x, 0
	}
	i = v % l.x
	v /= l.x
	return i, v % l.y, v / l.y
}

// Neighbors appends the stencil neighbors of v to buf: up to 26 on the
// 27-pt stencil, up to 8 on the 9-pt stencil, by increasing (dk, dj, di)
// offset.
func (l *lattice) Neighbors(v int, buf []int) []int {
	i, j, k := l.coords(v)
	x, y := l.x, l.y
	for nk := max(k-1, 0); nk <= min(k+1, l.z-1); nk++ {
		for nj := max(j-1, 0); nj <= min(j+1, y-1); nj++ {
			row := (nk*y + nj) * x
			for u := row + max(i-1, 0); u <= row+min(i+1, x-1); u++ {
				if u != v {
					buf = append(buf, u)
				}
			}
		}
	}
	return buf
}

// Degree returns the stencil degree of v in O(1) from its coordinates.
func (l *lattice) Degree(v int) int {
	i, j, k := l.coords(v)
	return span(i, l.x)*span(j, l.y)*span(k, l.z) - 1
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

// axisNeighbors appends the axis neighbors of v, the 5-pt or 7-pt
// relaxation's, to buf: -x, +x, -y, +y, -z, +z.
func (l *lattice) axisNeighbors(v int, buf []int) []int {
	i, j, k := l.coords(v)
	if i > 0 {
		buf = append(buf, v-1)
	}
	if i < l.x-1 {
		buf = append(buf, v+1)
	}
	if j > 0 {
		buf = append(buf, v-l.x)
	}
	if j < l.y-1 {
		buf = append(buf, v+l.x)
	}
	if k > 0 {
		buf = append(buf, v-l.x*l.y)
	}
	if k < l.z-1 {
		buf = append(buf, v+l.x*l.y)
	}
	return buf
}

// axisDegree returns the number of axis neighbors of v.
func (l *lattice) axisDegree(v int) int {
	i, j, k := l.coords(v)
	return span(i, l.x) + span(j, l.y) + span(k, l.z) - 3
}

// parity returns (i+j+k) mod 2, the side of v in the bipartition of the
// axis relaxation.
func (l *lattice) parity(v int) int {
	i, j, k := l.coords(v)
	return (i + j + k) % 2
}

// CliqueBlocks returns the compact clique cover: the K8 blocks of a
// grid with no unit dimension, the K4 blocks of the plane of a grid
// with one (every 9-pt grid of width and height > 1), chain pairs when
// only one axis exceeds 1, and the lone vertex of a 1×1(×1) grid.
func (l *lattice) CliqueBlocks() Cover { return cliqueCover(l.w, l.x, l.y, l.z) }

// Tiling partitions the grid into size-edged tiles: size×size squares
// on a 9-pt grid, size×size×size bricks on a 27-pt one.
func (l *lattice) Tiling(size int) (*Tiling, error) { return NewTiling(l.x, l.y, l.z, size) }

var (
	_ core.Lattice     = (*Grid2D)(nil)
	_ core.Lattice     = (*Grid3D)(nil)
	_ core.DegreeGraph = (*Grid2D)(nil)
	_ core.DegreeGraph = (*Grid3D)(nil)
)
