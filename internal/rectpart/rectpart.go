// Package rectpart implements rectilinear partitioning of weighted grids
// after Nicol (reference [2] of the paper): choose axis-aligned cuts so
// the heaviest block is as light as possible. The paper's application
// setting partitions space rectilinearly before coloring the resulting
// stencil; balancing block loads both lowers the coloring's maxcolor and
// tightens the K4/K8 bound, so the partitioner is a natural companion to
// the coloring algorithms.
//
// One probe solves every 1D problem exactly: binary search on the
// bottleneck, greedy feasibility scan. Partition1D is its one-slab case.
// The generalized block distribution of a lattice is NP-hard; Partition
// runs Nicol's alternating refinement on a lattice of either depth (a
// 9-pt grid is one layer deep): it fixes the cuts of all but one axis
// and re-solves that axis with the probe, each line of the axis loaded
// per slab of the fixed axes' blocks, iterating to a local optimum.
package rectpart

import (
	"fmt"
	"math"
	"slices"

	"stencilivc/internal/core"
)

// Partition1D splits loads into k contiguous parts minimizing the
// maximum part sum. It returns the k-1 interior cut positions (part i is
// loads[cuts[i-1]:cuts[i]]) and the bottleneck value. k must be in
// [1, len(loads)]; parts are allowed to be empty only when k exceeds the
// number of positive entries, in which case trailing parts may be empty.
// Loads must be non-negative with a total that fits in int64, the
// probe's upper bound.
func Partition1D(loads []int64, k int) ([]int, int64, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("rectpart: k = %d < 1", k)
	}
	var total int64
	for _, l := range loads {
		if l < 0 {
			return nil, 0, fmt.Errorf("rectpart: negative load %d", l)
		}
		if total > math.MaxInt64-l {
			return nil, 0, fmt.Errorf("rectpart: total load overflows int64")
		}
		total += l
	}
	cuts, b := probe(loads, 1, k)
	return cuts, b, nil
}

// Partition computes a k[0]×k[1]×k[2] rectilinear partition of l (k[2]
// = 1 for a 9-pt grid) with Nicol's alternating refinement, starting
// from uniform cuts. A round re-solves the x, y and z cuts in turn,
// each against the other two axes' current cuts; an axis in one part
// has no cuts to re-solve. Rounds stop when one no longer lowers the
// bottleneck, or after maxRounds (10 when maxRounds < 1). Partition
// returns the interior cut positions per axis and the bottleneck block
// weight.
func Partition(l core.Lattice, k [3]int, maxRounds int) ([3][]int, int64, error) {
	w, x, y, z := l.Lattice()
	ext := [3]int{x, y, z}
	var cuts [3][]int
	for a, n := range ext {
		if k[a] < 1 || k[a] > n {
			return [3][]int{}, 0, fmt.Errorf("rectpart: partition %dx%dx%d invalid for grid %dx%dx%d",
				k[0], k[1], k[2], x, y, z)
		}
		cuts[a] = uniformCuts(n, k[a])
	}
	if maxRounds < 1 {
		maxRounds = 10
	}
	best := Bottleneck(l, cuts)
	for range maxRounds {
		for a := range ext {
			if k[a] > 1 {
				cuts[a] = refineAxis(w, ext, cuts, a, k[a])
			}
		}
		now := Bottleneck(l, cuts)
		if now >= best {
			break
		}
		best = now
	}
	return cuts, best, nil
}

// Bottleneck returns the heaviest block weight of l under the given
// interior cuts per axis; an axis in one part has none.
func Bottleneck(l core.Lattice, cuts [3][]int) int64 {
	w, x, y, z := l.Lattice()
	var part [3][]int
	var stride [3]int
	n := 1
	for a, e := range [3]int{x, y, z} {
		part[a], stride[a] = partOf(cuts[a], e), n
		n *= len(cuts[a]) + 1
	}
	return slices.Max(blockSums(w, part, stride, n))
}

// refineAxis exactly re-partitions axis a into k parts given the other
// two axes' cuts: each line of axis a is loaded per slab, one block of
// the fixed axes, and the probe cuts the lines.
func refineAxis(w []int64, ext [3]int, cuts [3][]int, a, k int) []int {
	var part [3][]int
	var stride [3]int
	slabs := 1
	for b, e := range ext {
		if b != a {
			part[b], stride[b] = partOf(cuts[b], e), slabs
			slabs *= len(cuts[b]) + 1
		}
	}
	part[a], stride[a] = make([]int, ext[a]), slabs
	for i := range part[a] {
		part[a][i] = i
	}
	refined, _ := probe(blockSums(w, part, stride, ext[a]*slabs), slabs, k)
	return refined
}

// probe splits lines into k contiguous parts minimizing the bottleneck,
// where a part weighs the most that any one slab puts in it: load holds
// slabs loads per line, line i's in load[i*slabs:(i+1)*slabs]. It binary
// searches the smallest bottleneck the greedy scan meets and returns
// that scan's k-1 cuts, trailing empty parts cut at the line count.
func probe(load []int64, slabs, k int) ([]int, int64) {
	n := len(load) / slabs
	var total int64
	for _, l := range load {
		total += l
	}
	cur := make([]int64, slabs)
	cuts := make([]int, 0, k-1)
	// scan greedily cuts before a line that would push some slab's part
	// past b, and reports whether k parts suffice.
	scan := func(b int64) bool {
		cuts = cuts[:0]
		clear(cur)
		for i := range n {
			line := load[i*slabs : (i+1)*slabs]
			for s, l := range line {
				if cur[s]+l > b {
					if len(cuts) == k-1 {
						return false
					}
					cuts = append(cuts, i)
					clear(cur)
					break
				}
			}
			for s, l := range line {
				if cur[s] += l; cur[s] > b {
					return false
				}
			}
		}
		for len(cuts) < k-1 {
			cuts = append(cuts, n)
		}
		return true
	}
	lo, hi := int64(0), total
	for lo < hi {
		if mid := lo + (hi-lo)/2; scan(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	scan(lo)
	return cuts, lo
}

// blockSums adds each cell's weight to its block: cell (i,j,k) of the
// x-fastest weight slice w lies in block part[0][i]*stride[0] +
// part[1][j]*stride[1] + part[2][k]*stride[2] of n.
func blockSums(w []int64, part [3][]int, stride [3]int, n int) []int64 {
	sums := make([]int64, n)
	v := 0
	for _, pk := range part[2] {
		for _, pj := range part[1] {
			for _, pi := range part[0] {
				sums[pi*stride[0]+pj*stride[1]+pk*stride[2]] += w[v]
				v++
			}
		}
	}
	return sums
}

// partOf maps each coordinate of an n-axis to the index of the part
// the interior cuts put it in.
func partOf(cuts []int, n int) []int {
	part := make([]int, n)
	p := 0
	for c := range part {
		for p < len(cuts) && cuts[p] <= c {
			p++
		}
		part[c] = p
	}
	return part
}

// uniformCuts returns k-1 evenly spaced interior cuts of an n-axis.
func uniformCuts(n, k int) []int {
	cuts := make([]int, k-1)
	for i := 1; i < k; i++ {
		cuts[i-1] = i * n / k
	}
	return cuts
}
