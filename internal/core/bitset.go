package core

import "math/bits"

// This file holds the bitmap and streaming rungs of the placement
// kernel's ladder: uniform slot map → color map → streaming scan →
// sort. FitScratch fills the packed free map for uniform-weight
// instances; for mixed weights it marks each neighbor's colors in the
// same four-word map read as a color map, and an occupancy that ends
// past the map takes the sort-free streaming min-gap scan. All of them
// produce bit-identical results to the sort+scan kernel of LowestFit —
// that kernel stays as the long-list rung and the cross-check reference.
//
// The uniform-weight degeneracy (cf. the classic-coloring equivalence
// for common weight w): every start a greedy placement can produce is a
// multiple of w, because LowestFit only ever returns 0 or some
// neighbor's interval end, and inductively all ends are multiples of w.
// Interval placement therefore degenerates to slot coloring — occupancy
// is a <=26-bit mask over slots start/w, and first-fit is one
// bits.TrailingZeros64 over the complement of the mask.
//
// The color map is the same map with slots one color wide: the lowest
// fit is a function of the set of occupied colors, so ORing each
// interval into the map and finding the first run of w clear bits gives
// LowestFit's answer in one pass over the list, whatever its order.

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
// the map spills across multiple words for colors beyond 64*w. Read as
// a color map it covers colors 0..freeMapSlots-1.
const (
	freeMapWords = 4
	freeMapSlots = freeMapWords * 64
)

// freeMap is the packed slot-occupancy bitmap of the uniform-weight
// fast path: bit s of word s/64 marks slot [s*w, (s+1)*w) occupied. The
// color rung uses it with w = 1, one bit per color.
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

// fill marks colors [lo, hi) occupied, for 0 <= lo < hi <= freeMapSlots:
// a partial first word, full middle words and a partial last word.
func (f *freeMap) fill(lo, hi int64) {
	i, j := lo>>6, (hi-1)>>6
	first := ^uint64(0) << uint(lo&63)
	last := ^uint64(0) >> uint(63-(hi-1)&63)
	if i == j {
		f[i] |= first & last
		return
	}
	f[i] |= first
	for k := i + 1; k < j; k++ {
		f[k] = ^uint64(0)
	}
	f[j] |= last
}

// firstRun returns the lowest color c such that no color of [c, c+w) is
// marked; every color past the map is clear, so w may exceed it. It
// alternates two word scans, one mask or complement plus
// bits.TrailingZeros64 per word: from the candidate c to the next
// marked color p, which answers when p-c >= w or no color from c on is
// marked, and from p to the next clear color, the next candidate.
func (f *freeMap) firstRun(w int64) int64 {
	var c int64
	for {
		i := c >> 6
		word := f[i] &^ (1<<uint(c&63) - 1)
		for word == 0 {
			if i++; i == freeMapWords {
				return c
			}
			word = f[i]
		}
		p := i<<6 + int64(bits.TrailingZeros64(word))
		if p-c >= w {
			return c
		}
		word = ^f[i] &^ (1<<uint(p&63) - 1)
		for word == 0 {
			if i++; i == freeMapWords {
				return freeMapSlots
			}
			word = ^f[i]
		}
		c = i<<6 + int64(bits.TrailingZeros64(word))
	}
}

// firstRunWord is firstRun on a map whose marked colors all lie below
// 64, in x: the same two scans, on one word held in a register.
func firstRunWord(x uint64, w int64) int64 {
	var c int64
	for {
		m := x >> uint(c)
		if m == 0 {
			return c
		}
		gap := int64(bits.TrailingZeros64(m))
		if gap >= w {
			return c
		}
		c += gap
		c += int64(bits.TrailingZeros64(^(x >> uint(c))))
	}
}

// ColorMap marks the colors a list of intervals occupies, up to color
// freeMapSlots (256), and counts the intervals marked: colors below 64
// in one word, the map's four words only once an interval ends past 64.
// It is the color rung's map, and fit its one marking loop: Fit marks
// a gathered list and scans it in one call, and SGK marks each
// uncolored block member's fixed neighborhood once (Mark) and fits each
// trial order against a copy (FitScratch.FitMap). The zero value is the
// empty map.
type ColorMap struct {
	low  uint64 // colors 0..63
	wide bool   // f holds marks past color 64
	f    freeMap
	n    int // intervals marked, the placement's tally
}

// Mark marks every interval of occ, clipped below at 0 (an empty one
// marks nothing but is counted, as Fit counts it), and reports false at
// the first interval that ends past the map's reach; m then no longer
// maps what was marked.
func (m *ColorMap) Mark(occ []Interval) bool {
	_, ok := m.fit(occ, 0)
	return ok
}

// fit marks occ as Mark does, colors below 64 in a register word and
// the map's words only once an interval ends past 64, and then returns
// the lowest color c such that no color of [c, c+w) is marked (0 when
// w <= 0, with no scan). The scan is one register word while every
// mark lies below 64, else the four words with the low word folded
// into the first. One function does both so Fit makes one call.
func (m *ColorMap) fit(occ []Interval, w int64) (int64, bool) {
	low, wide := m.low, m.wide
	for _, iv := range occ {
		lo := max(iv.Start, 0)
		switch {
		case iv.End <= lo:
			// Empty, or wholly below color 0: it occupies nothing.
		case iv.End <= 64:
			// A shift by 64 gives 0, so End = 64 fills the word's top.
			low |= (1<<uint(iv.End) - 1) &^ (1<<uint(lo) - 1)
		case iv.End <= freeMapSlots:
			m.f.fill(lo, iv.End)
			wide = true
		default:
			return 0, false
		}
	}
	m.low, m.wide = low, wide
	m.n += len(occ)
	switch {
	case w <= 0:
		return 0, true
	case !wide:
		return firstRunWord(low, w), true
	}
	m.f[0] |= low
	return m.f.firstRun(w), true
}

// slotOf converts a uniform-weight start to its slot index, dividing
// by w's bound reciprocal, and reports false when the start is not a
// multiple of w (a coloring the bitset kernel cannot represent,
// produced only by hand-built colorings — greedy placements keep the
// invariant inductively). start must not be negative.
func slotOf(start int64, w Divisor) (int64, bool) {
	if w.d == 1 {
		return start, true
	}
	slot := int64(w.Div(uint64(start)))
	if slot*int64(w.d) != start {
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
// faster than the sort (see BenchmarkPlaceLowest and DESIGN.md section
// 14). Worst case (occupancy sorted by strictly descending start) is
// O(d^2) compares, so callers with large general-graph lists should
// prefer the sorting kernel. FitScratch takes it for a short list whose
// occupancy ends past the color map.
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
