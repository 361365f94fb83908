package core

import "math/bits"

// This file holds the pieces of the v2 placement rungs (PR 7): the
// packed free map that FitScratch fills for uniform-weight instances and
// the sort-free streaming min-gap scan for general weights. Both produce
// bit-identical results to the sort+scan kernel of LowestFit — the v1
// kernel stays as the long-list rung and the cross-check reference.
//
// The uniform-weight degeneracy (cf. the classic-coloring equivalence
// for common weight w): every start a greedy placement can produce is a
// multiple of w, because LowestFit only ever returns 0 or some
// neighbor's interval end, and inductively all ends are multiples of w.
// Interval placement therefore degenerates to slot coloring — occupancy
// is a <=26-bit mask over slots start/w, and first-fit is one
// bits.TrailingZeros64 over the complement of the mask.

// UniformWeighter is implemented by graphs that can report whether all
// their vertex weights share one common positive value — the verdict
// that routes placements onto the packed free-map fast path. The answer
// is authoritative: implementers return (0, false) to opt out even when
// their weights happen to be uniform (tests use this to force the
// general interval kernel), and must keep the verdict coherent with
// Weight under mutation. Implementations must be safe for concurrent
// readers, like every other Graph method.
type UniformWeighter interface {
	// UniformWeight returns (w, true) when every vertex weighs w > 0,
	// and (0, false) otherwise (mixed weights, any zero weight, or an
	// empty graph).
	UniformWeight() (int64, bool)
}

// UniformWeight reports whether every vertex of g has the same positive
// weight. Graphs implementing UniformWeighter (CSR, whose private
// weight slice makes a cached verdict sound) answer in O(1), and that
// verdict takes precedence; a Lattice is scanned through its weight
// slice, any other graph through Weight. The grids keep no verdict:
// Set, their one weight writer, would have to keep it current through
// every update, so a grid is scanned instead. Callers that place many
// vertices should compute this once per solve, not per placement —
// FitScratch caches it when it binds.
func UniformWeight(g Graph) (int64, bool) {
	if uw, ok := g.(UniformWeighter); ok {
		return uw.UniformWeight()
	}
	if l, ok := g.(Lattice); ok {
		w, _, _, _ := l.Lattice()
		if len(w) == 0 || w[0] <= 0 {
			return 0, false
		}
		for _, wv := range w {
			if wv != w[0] {
				return 0, false
			}
		}
		return w[0], true
	}
	return ScanUniformWeight(g)
}

// ScanUniformWeight is the O(n) reference detection: it reads every
// weight and reports the common positive value, if any. It is the
// implementation behind the cached UniformWeighter verdicts.
func ScanUniformWeight(g Graph) (int64, bool) {
	n := g.Len()
	if n == 0 {
		return 0, false
	}
	w := g.Weight(0)
	if w <= 0 {
		return 0, false
	}
	for v := 1; v < n; v++ {
		if g.Weight(v) != w {
			return 0, false
		}
	}
	return w, true
}

// The packed free-map covers freeMapWords*64 slots. One word is enough
// for the stencils (first-fit over d <= 26 occupied slots always lands
// in slot <= 26), but general graphs route through the same kernel, so
// the map spills across multiple words for colors beyond 64*w.
const (
	freeMapWords = 4
	freeMapSlots = freeMapWords * 64
)

// freeMap is the packed slot-occupancy bitmap of the uniform-weight
// fast path: bit s of word s/64 marks slot [s*w, (s+1)*w) occupied.
type freeMap [freeMapWords]uint64

// set marks slot s occupied. Slots beyond the map are ignored, which is
// sound whenever fewer than freeMapSlots slots are occupied in total:
// the first free slot then lies inside the map regardless.
func (f *freeMap) set(s int64) {
	if s < freeMapSlots {
		f[s>>6] |= 1 << uint(s&63)
	}
}

// firstFree returns the lowest unoccupied slot via a word-level scan:
// one complement + TrailingZeros64 per word, at most freeMapWords
// iterations (the first word decides for every stencil placement).
func (f *freeMap) firstFree() int64 {
	for i := 0; i < freeMapWords; i++ {
		if free := ^f[i]; free != 0 {
			return int64(i)<<6 + int64(bits.TrailingZeros64(free))
		}
	}
	return freeMapSlots
}

// slotOf converts a uniform-weight start to its slot index, reporting
// false when the start is not a multiple of w (a coloring the bitset
// kernel cannot represent, produced only by hand-built colorings —
// greedy placements keep the invariant inductively).
func slotOf(start, w int64) (int64, bool) {
	if w == 1 {
		return start, true
	}
	slot := start / w
	if slot*w != start {
		return 0, false
	}
	return slot, true
}

// LowestFitStream computes LowestFit without sorting: it sweeps the
// occupancy list, bumping the candidate start past every interval that
// overlaps [cur, cur+w), and repeats until one full pass finds no
// overlap — proof that cur is feasible. Minimality is invariant: cur
// only ever jumps from a candidate to the end of an interval that
// blocked it, so every start below the final cur was excluded by some
// interval.
//
// Unlike LowestFit it never mutates occ and moves no data, trading the
// insertion sort's O(d^2/4) writes for a few branch-lean read-only
// passes; on the <=26-entry lists stencils produce it is measurably
// faster (see BenchmarkPlaceLowest and DESIGN.md section 14). Worst
// case (occupancy sorted by strictly descending start) is O(d^2)
// compares, so callers with large general-graph lists should prefer the
// sorting kernel; FitScratch dispatches on length.
func LowestFitStream(occ []Interval, w int64) int64 {
	if w <= 0 {
		return 0
	}
	var cur int64
	for {
		advanced := false
		for _, iv := range occ {
			if iv.End > cur && iv.Start < cur+w && iv.Start < iv.End {
				cur = iv.End
				advanced = true
			}
		}
		if !advanced {
			return cur
		}
	}
}
