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

// TileOf returns the ID of the tile containing vertex v.
func (tl *Tiling) TileOf(v int) int {
	i := v % tl.gx
	v /= tl.gx
	j := v % tl.gy
	k := v / tl.gy
	return (k/tl.Size*tl.nty+j/tl.Size)*tl.ntx + i/tl.Size
}

// AppendBoundary appends the vertex ids of tile t that lie on a tile
// face shared with another tile — the halo cells whose stencil
// neighborhoods cross the partition. Only these vertices can be involved
// in cross-tile conflicts, so the speculative solver's detection sweep
// scans exactly this set.
func (tl *Tiling) AppendBoundary(t Tile, buf []int) []int {
	onFace := func(c, lo, hi, extent int) bool {
		return (c == lo && lo > 0) || (c == hi-1 && hi < extent)
	}
	for k := t.Z0; k < t.Z1; k++ {
		zf := onFace(k, t.Z0, t.Z1, tl.gz)
		for j := t.Y0; j < t.Y1; j++ {
			yf := onFace(j, t.Y0, t.Y1, tl.gy)
			base := k*t.sxy + j*t.sx
			if zf || yf {
				for i := t.X0; i < t.X1; i++ {
					buf = append(buf, base+i)
				}
				continue
			}
			for i := t.X0; i < t.X1; i++ {
				if onFace(i, t.X0, t.X1, tl.gx) {
					buf = append(buf, base+i)
				}
			}
		}
	}
	return buf
}
