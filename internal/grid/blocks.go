package grid

import "stencilivc/internal/core"

// Cover is the compact clique cover of a stencil grid: equal-shaped
// maximal cliques that share one member-offset table. Block b holds the
// vertices Anchor(b)+Offsets[t], t = 0..len(Offsets)-1, in that order.
// On a non-degenerate grid the blocks are the 2×2 squares (K4) of a
// Grid2D or the 2×2×2 cubes (K8) of a Grid3D; they drive the max-clique
// lower bound (Section III-A), the GKF/SGK heuristics (Section V-A), and
// BDP's recoloring order (Section V-B).
//
// One offset table plus one weight per block keep a cover at two
// allocations on any grid; a block's anchor is worked out from its
// index.
type Cover struct {
	// Offsets is the shared member table: {0,1,X,X+1} for K4, the eight
	// corners {0,1,X,X+1,XY,XY+1,XY+X,XY+X+1} for K8, {0,1} for the pairs
	// of a chain, and {0} for a single vertex.
	Offsets []int
	// Weight is each block's total member weight, by block index.
	Weight []int64
	// rowBlocks and layerBlocks divide a block index by the blocks in
	// a row and in a layer of the kept axes, and rowLen is a row's cell
	// count (see Anchor).
	rowBlocks, layerBlocks core.Divisor
	rowLen                 int
}

// Len returns the number of blocks.
func (cv Cover) Len() int { return len(cv.Weight) }

// Anchor returns block b's first (smallest) vertex id; anchors increase
// with b. Blocks are numbered like the cells they anchor, x-fastest,
// but no block is anchored in the last cell of a row or the last row of
// a layer, so block b's anchor is b plus one cell for every row of
// blocks before it and one row for every layer before it: two
// quotients, each a multiply (core.Divisor).
func (cv Cover) Anchor(b int) int {
	ub := uint64(b)
	return b + int(cv.rowBlocks.Div(ub)) + int(cv.layerBlocks.Div(ub))*cv.rowLen
}

// ByWeightDesc returns the block indices by non-increasing weight, ties
// by anchor: the visit order of GKF, SGK and BDP's recoloring pass
// (core.OrderByWeightDesc over the increasing anchors).
func (cv Cover) ByWeightDesc() []int { return core.OrderByWeightDesc(cv.Weight) }

// MaxWeight returns the largest block weight; an empty cover, or one whose
// blocks all weigh less than 0, gives 0.
func (cv Cover) MaxWeight() int64 {
	var m int64
	for _, w := range cv.Weight {
		m = max(m, w)
	}
	return m
}

// cliqueCover builds the cover of an x×y×z grid with x-fastest ids. Unit
// axes are dropped first, so a grid that is 2D or 1D in disguise gets
// the K4 blocks of its plane (in whatever orientation) or the edge pairs
// of its chain, and a single vertex one block of its own; the block
// heuristics thereby stay defined on every shape. Blocks span two cells
// along each remaining axis and are anchored in id order.
func cliqueCover(w []int64, x, y, z int) Cover {
	ax := [3]int{1, 1, 1}
	m := 0
	for _, d := range [3]int{x, y, z} {
		if d > 1 {
			ax[m] = d
			m++
		}
	}
	// Along the kept axes ids step by 1, ax[0] and ax[0]*ax[1].
	stride := [3]int{1, ax[0], ax[0] * ax[1]}
	offsets := make([]int, 1<<m)
	for t := range offsets {
		for a := range m {
			if t&(1<<a) != 0 {
				offsets[t] += stride[a]
			}
		}
	}
	ext := [3]int{max(ax[0]-1, 1), max(ax[1]-1, 1), max(ax[2]-1, 1)}
	n := ext[0] * ext[1] * ext[2]
	cv := Cover{
		Offsets:     offsets,
		Weight:      make([]int64, n),
		rowBlocks:   core.NewDivisor(int64(ext[0])),
		layerBlocks: core.NewDivisor(int64(ext[0] * ext[1])),
		rowLen:      ax[0],
	}
	b := 0
	for k := range ext[2] {
		for j := range ext[1] {
			row := j*stride[1] + k*stride[2]
			sums := cv.Weight[b : b+ext[0]]
			b += ext[0]
			// Block row+i sums columns i and i+1 of the block's rows, the
			// one, two or four row slices at the offsets without an x
			// step; each column's sum serves the blocks on both its sides.
			// A lone vertex is its own block.
			r0 := w[row : row+ax[0]]
			switch m {
			case 0:
				sums[0] = r0[0]
			case 1:
				for i := range sums {
					sums[i] = r0[i] + r0[i+1]
				}
			case 2:
				r1 := w[row+stride[1]:][:len(r0)]
				prev := r0[0] + r1[0]
				for i := range sums {
					next := r0[i+1] + r1[i+1]
					sums[i] = prev + next
					prev = next
				}
			case 3:
				r1 := w[row+stride[1]:][:len(r0)]
				r2 := w[row+stride[2]:][:len(r0)]
				r3 := w[row+stride[1]+stride[2]:][:len(r0)]
				prev := r0[0] + r1[0] + r2[0] + r3[0]
				for i := range sums {
					next := r0[i+1] + r1[i+1] + r2[i+1] + r3[i+1]
					sums[i] = prev + next
					prev = next
				}
			}
		}
	}
	return cv
}
