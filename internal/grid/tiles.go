package grid

import "fmt"

// Tile is one axis-aligned box of a grid partition: the cells
// [X0,X1)×[Y0,Y1)×[Z0,Z1). 2D tiles have Z0 = 0, Z1 = 1. Tiles are
// produced by Tiling and carry the parent grid's strides so vertex ids
// can be enumerated without another grid lookup.
type Tile struct {
	// ID is the tile's rank in the tiling, x-fastest over tile
	// coordinates. It is the first component of the deterministic
	// (tile-id, vertex-id) tie-break of the speculative solver.
	ID int
	// Cell bounds, half-open.
	X0, X1, Y0, Y1, Z0, Z1 int

	sx, sxy int // id strides of the parent grid (X and X*Y)
}

// Len returns the number of cells in the tile.
func (t Tile) Len() int {
	return (t.X1 - t.X0) * (t.Y1 - t.Y0) * (t.Z1 - t.Z0)
}

// AppendVertices appends the tile's vertex ids to buf in x-fastest
// (line-by-line) order — the tile-local GLL traversal.
func (t Tile) AppendVertices(buf []int) []int {
	for k := t.Z0; k < t.Z1; k++ {
		for j := t.Y0; j < t.Y1; j++ {
			base := k*t.sxy + j*t.sx
			for i := t.X0; i < t.X1; i++ {
				buf = append(buf, base+i)
			}
		}
	}
	return buf
}

// Tiling is a complete partition of a stencil grid into cache-sized
// tiles (2D: T×T blocks, 3D: T×T×T bricks; edge tiles are clipped). It
// is the decomposition unit of the tile-parallel speculative solver:
// tiles are colored concurrently and only cross-tile (halo) edges can
// conflict.
type Tiling struct {
	// Tiles lists every tile, sorted by ID (x-fastest tile order).
	Tiles []Tile
	// Size is the tile edge length in cells.
	Size int

	gx, gy, gz    int // grid extents
	ntx, nty, ntz int // tile counts per dimension
}

// NewTiling partitions an X×Y×Z grid (pass gz = 1 for 2D) into
// size-edged tiles. size must be >= 1.
func NewTiling(gx, gy, gz, size int) (*Tiling, error) {
	if size < 1 {
		return nil, fmt.Errorf("grid: tile size %d < 1", size)
	}
	if gx < 1 || gy < 1 || gz < 1 {
		return nil, fmt.Errorf("grid: invalid tiling extents %dx%dx%d", gx, gy, gz)
	}
	ceil := func(a, b int) int { return (a + b - 1) / b }
	tl := &Tiling{
		Size: size,
		gx:   gx, gy: gy, gz: gz,
		ntx: ceil(gx, size), nty: ceil(gy, size), ntz: ceil(gz, size),
	}
	tl.Tiles = make([]Tile, 0, tl.ntx*tl.nty*tl.ntz)
	id := 0
	for tz := 0; tz < tl.ntz; tz++ {
		for ty := 0; ty < tl.nty; ty++ {
			for tx := 0; tx < tl.ntx; tx++ {
				tl.Tiles = append(tl.Tiles, Tile{
					ID: id,
					X0: tx * size, X1: min((tx+1)*size, gx),
					Y0: ty * size, Y1: min((ty+1)*size, gy),
					Z0: tz * size, Z1: min((tz+1)*size, gz),
					sx: gx, sxy: gx * gy,
				})
				id++
			}
		}
	}
	return tl, nil
}

// LowFaceLen returns the number of tile t's cells on a low face shared
// with another tile (x = X0 > 0, y = Y0 > 0 or z = Z0 > 0): the length
// of AppendLowFaces' list.
func (tl *Tiling) LowFaceLen(t Tile) int {
	inner := 1
	for _, d := range [3][2]int{{t.X0, t.X1}, {t.Y0, t.Y1}, {t.Z0, t.Z1}} {
		if d[0] > 0 {
			d[0]++
		}
		inner *= d[1] - d[0]
	}
	return t.Len() - inner
}

// AppendLowFaces appends, in increasing id order, the vertex ids of tile
// t that lie on a low face shared with another tile: x = X0 > 0,
// y = Y0 > 0 or z = Z0 > 0. A neighbor in an earlier tile (lower ID)
// lies across at least one low face, so these are the only cells of t
// that can conflict with an earlier tile, and the speculative solver's
// detection sweep scans exactly them.
func (tl *Tiling) AppendLowFaces(t Tile, buf []int) []int {
	for k := t.Z0; k < t.Z1; k++ {
		zf := k == t.Z0 && k > 0
		for j := t.Y0; j < t.Y1; j++ {
			base := k*t.sxy + j*t.sx
			hi := t.X1
			if !zf && !(j == t.Y0 && j > 0) {
				if t.X0 == 0 {
					continue
				}
				hi = t.X0 + 1
			}
			for i := t.X0; i < hi; i++ {
				buf = append(buf, base+i)
			}
		}
	}
	return buf
}

// Halo tells which tile each stencil neighbor of one cell lies in, from
// the faces of the cell's own tile that the cell lies on: a neighbor
// offset that steps across such a face reaches the adjacent tile, and
// any other offset stays inside. It divides nothing per neighbor.
type Halo struct {
	v int
	// The cell's layer is ids [layer, layerEnd) and its row [row,
	// rowEnd); a neighbor outside either is moved into it by a grid
	// stride (sxy, sx) before the next axis is read.
	layer, layerEnd, row, rowEnd, sx, sxy int
	// The tile-ID step across each face the cell lies on: -1 and +1 for
	// the low and high x faces, -/+ the tiles per row for y, -/+ the
	// tiles per layer for z; 0 where the cell is not on that face or the
	// face is the grid's edge. x holds the x steps by offset: x[0] for
	// the cell before, x[2] for the cell after.
	ylo, yhi, zlo, zhi int
	x                  [3]int
}

// Halo returns vertex v's halo in its tile t.
func (tl *Tiling) Halo(t Tile, v int) Halo {
	i, j := v%tl.gx, v/tl.gx
	j, k := j%tl.gy, j/tl.gy
	h := Halo{v: v, layer: k * t.sxy, row: v - i, sx: t.sx, sxy: t.sxy}
	h.layerEnd, h.rowEnd = h.layer+t.sxy, h.row+t.sx
	step := func(c, lo, hi, extent, d int) (int, int) {
		a, b := 0, 0
		if c == lo && lo > 0 {
			a = -d
		}
		if c == hi-1 && hi < extent {
			b = d
		}
		return a, b
	}
	h.x[0], h.x[2] = step(i, t.X0, t.X1, tl.gx, 1)
	h.ylo, h.yhi = step(j, t.Y0, t.Y1, tl.gy, tl.ntx)
	h.zlo, h.zhi = step(k, t.Z0, t.Z1, tl.gz, tl.ntx*tl.nty)
	return h
}

// Cross returns the ID of neighbor u's tile minus the ID of the cell's
// own: 0 when u shares the cell's tile, negative when u's tile comes
// earlier in the tiling. u must be a stencil neighbor of the cell.
func (h *Halo) Cross(u int) (d int) {
	if u < h.layer {
		d, u = h.zlo, u+h.sxy
	} else if u >= h.layerEnd {
		d, u = h.zhi, u-h.sxy
	}
	if u < h.row {
		d, u = d+h.ylo, u+h.sx
	} else if u >= h.rowEnd {
		d, u = d+h.yhi, u-h.sx
	}
	return d + h.x[u-h.v+1]
}
