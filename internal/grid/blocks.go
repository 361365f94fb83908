package grid

import "stencilivc/internal/core"

// Cover is the compact clique cover of a stencil grid: equal-shaped
// maximal cliques that share one member-offset table. Block b holds the
// vertices Anchor[b]+Offsets[t], t = 0..len(Offsets)-1, in that order.
// On a non-degenerate grid the blocks are the 2×2 squares (K4) of a
// Grid2D or the 2×2×2 cubes (K8) of a Grid3D; they drive the max-clique
// lower bound (Section III-A), the GKF/SGK heuristics (Section V-A), and
// BDP's recoloring order (Section V-B).
//
// One offset table plus one anchor and one weight per block keep a cover
// at three allocations on any grid.
type Cover struct {
	// Offsets is the shared member table: {0,1,X,X+1} for K4, the eight
	// corners {0,1,X,X+1,XY,XY+1,XY+X,XY+X+1} for K8, {0,1} for the pairs
	// of a chain, and {0} for a single vertex.
	Offsets []int
	// Anchor lists each block's first (smallest) vertex id, increasing.
	Anchor []int
	// Weight is each block's total member weight.
	Weight []int64
}

// Len returns the number of blocks.
func (cv Cover) Len() int { return len(cv.Anchor) }

// ByWeightDesc returns the block indices by non-increasing weight, ties
// by anchor: the visit order of GKF, SGK and BDP's recoloring pass. It
// is a stable sort by core.WeightDescKey over the increasing anchors.
func (cv Cover) ByWeightDesc() []int {
	keys := make([]uint64, len(cv.Weight))
	for b, w := range cv.Weight {
		keys[b] = core.WeightDescKey(w)
	}
	return core.OrderByKey(keys)
}

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
	cv := Cover{Offsets: offsets, Anchor: make([]int, 0, n), Weight: make([]int64, 0, n)}
	for k := range ext[2] {
		for j := range ext[1] {
			row := j*stride[1] + k*stride[2]
			for a := row; a < row+ext[0]; a++ {
				var sum int64
				for _, off := range offsets {
					sum += w[a+off]
				}
				cv.Anchor = append(cv.Anchor, a)
				cv.Weight = append(cv.Weight, sum)
			}
		}
	}
	return cv
}
