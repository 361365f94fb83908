package grid

import "stencilivc/internal/core"

// Morton2D interleaves the low 21 bits of i and j into a Z-order key:
// bit b of i lands at position 2b, bit b of j at position 2b+1. Cells that
// are close in space receive close keys, which is why the Greedy Z-Order
// heuristic (GZO, Section V-A) visits vertices in this order.
func Morton2D(i, j int) uint64 {
	return spread2(uint64(i)) | spread2(uint64(j))<<1
}

// Morton3D interleaves the low 21 bits of i, j, and k into a 3D Z-order key.
func Morton3D(i, j, k int) uint64 {
	return spread3(uint64(i)) | spread3(uint64(j))<<1 | spread3(uint64(k))<<2
}

// spread2 spaces the low 32 bits of v so consecutive bits are 2 apart.
func spread2(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// spread3 spaces the low 21 bits of v so consecutive bits are 3 apart.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// ZOrder2D returns the vertices of g sorted by their 2D Morton key.
// The result is a permutation of 0..g.Len()-1. Morton keys are unique,
// so the order needs no tie-break.
func ZOrder2D(g *Grid2D) []int {
	keys := make([]uint64, 0, g.Len())
	for j := range g.Y {
		for i := range g.X {
			keys = append(keys, Morton2D(i, j))
		}
	}
	return core.OrderByKey(keys)
}

// ZOrder3D returns the vertices of g sorted by their 3D Morton key.
func ZOrder3D(g *Grid3D) []int {
	keys := make([]uint64, 0, g.Len())
	for k := range g.Z {
		for j := range g.Y {
			for i := range g.X {
				keys = append(keys, Morton3D(i, j, k))
			}
		}
	}
	return core.OrderByKey(keys)
}

// LineByLine2D returns the row-major traversal used by the Greedy
// Line-by-Line heuristic (GLL): rows in increasing j, each row in
// increasing i. Vertex ids are already row-major, so this is the identity.
func LineByLine2D(g *Grid2D) []int {
	order := make([]int, g.Len())
	for v := range order {
		order[v] = v
	}
	return order
}

// LineByLine3D returns the plane-by-plane, line-by-line traversal (GLL in
// 3D): planes in increasing k, rows in increasing j, cells in increasing i.
// Vertex ids are x-fastest, so this is the identity.
func LineByLine3D(g *Grid3D) []int {
	order := make([]int, g.Len())
	for v := range order {
		order[v] = v
	}
	return order
}
