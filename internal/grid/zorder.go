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

// LineOrder returns the line-by-line GLL traversal: layers in
// increasing k, rows in increasing j, cells in increasing i. Vertex ids
// are x-fastest, so this is the identity.
func (l *lattice) LineOrder() []int {
	order := make([]int, l.Len())
	for v := range order {
		order[v] = v
	}
	return order
}

// ZOrder returns the vertices sorted by their Morton key, the GZO
// traversal. The result is a permutation of 0..Len()-1; Morton keys are
// unique, so the order needs no tie-break. A one-layer grid is keyed by
// Morton2D: Morton3D(i, j, 0) sorts it the same way but spreads the
// keys over more bytes, which slows the radix sort.
func (l *lattice) ZOrder() []int {
	keys := make([]uint64, 0, l.Len())
	for k := range l.z {
		for j := range l.y {
			for i := range l.x {
				if l.z == 1 {
					keys = append(keys, Morton2D(i, j))
				} else {
					keys = append(keys, Morton3D(i, j, k))
				}
			}
		}
	}
	return core.OrderByKey(keys)
}
