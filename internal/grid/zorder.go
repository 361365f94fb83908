package grid

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

// zLeaf is the number of cells in a leaf box of the Morton walk: 8×8 on
// a one-layer grid, 4×4×4 otherwise.
const zLeaf = 64

// ZOrder returns the vertices in Morton (Z) order, the GZO traversal:
// cells by their interleaved coordinate bits, bit b of i before bit b of
// j before bit b of k, the highest bits deciding first. A one-layer grid
// interleaves i and j only, which orders its cells the same way.
//
// The order is walked, not sorted: the Morton tree of the smallest
// power-of-two box holding the grid is visited depth first, children in
// x-, then y-, then z-half order (x fastest), and a box that misses the
// grid is skipped. A leaf box is copied from one table of its cells' id
// offsets, so the result is the only allocation.
func (l *lattice) ZOrder() []int {
	w := zwalk{x: l.x, y: l.y, z: l.z, out: make([]int, 0, l.Len())}
	w.dims, w.leaf = 3, 4
	if l.z == 1 {
		w.dims, w.leaf = 2, 8
	}
	for m := range zLeaf {
		var c [3]int
		for b := range 6 {
			c[b%w.dims] |= (m >> b & 1) << (b / w.dims)
		}
		w.cell[m] = [3]uint8{uint8(c[0]), uint8(c[1]), uint8(c[2])}
		w.off[m] = (c[2]*l.y+c[1])*l.x + c[0]
	}
	side := 1
	for side < max(l.x, l.y, l.z) {
		side *= 2
	}
	w.box(0, 0, 0, side)
	return w.out
}

// zwalk is the state of one Morton walk: the grid's extents, the leaf
// table, and the order appended so far.
type zwalk struct {
	x, y, z    int
	dims, leaf int // 2 or 3 axes; the leaf box's side
	// cell and off list a leaf box's cells in Morton order: their
	// coordinates within the box and their id offsets from its corner.
	// The first s^dims entries are the Morton order of any box of side
	// s <= leaf.
	cell [zLeaf][3]uint8
	off  [zLeaf]int
	out  []int
}

// box appends the cells of the side-s box at (x0, y0, z0) that lie in
// the grid, in Morton order.
func (w *zwalk) box(x0, y0, z0, s int) {
	if x0 >= w.x || y0 >= w.y || z0 >= w.z {
		return
	}
	if s > w.leaf {
		h := s / 2
		for c := range 1 << w.dims {
			w.box(x0+(c&1)*h, y0+(c>>1&1)*h, z0+(c>>2&1)*h, h)
		}
		return
	}
	n, zs := s*s, 1
	if w.dims == 3 {
		n, zs = n*s, s
	}
	base := (z0*w.y+y0)*w.x + x0
	if x0+s <= w.x && y0+s <= w.y && z0+zs <= w.z {
		dst := w.out[len(w.out) : len(w.out)+n]
		for m, off := range w.off[:n] {
			dst[m] = base + off
		}
		w.out = w.out[:len(w.out)+n]
		return
	}
	for m, c := range w.cell[:n] {
		if x0+int(c[0]) < w.x && y0+int(c[1]) < w.y && z0+int(c[2]) < w.z {
			w.out = append(w.out, base+w.off[m])
		}
	}
}
