package core

import "math"

// WeightDescKey maps a weight onto an OrderByKey key whose ascending
// order is the weight's descending order, over all of int64: MaxInt64
// maps to 0 and MinInt64 to MaxUint64, so every int64, negative ones
// included, orders exactly as a signed comparison would. Sorting ids
// listed in increasing order by this key yields (weight desc, id asc),
// the tie rule of every weight-ordered visit.
func WeightDescKey(w int64) uint64 { return uint64(math.MaxInt64) - uint64(w) }

// OrderByKey returns the permutation of 0..len(keys)-1 that lists the
// indices by ascending key, equal keys in increasing index order. It is
// the one ordering kernel behind every ordered visit of the heuristics:
// the Morton order, the weight order, and the clique-block order.
//
// The sort is a least-significant-byte radix sort: one histogram pass
// over the keys, then one stable scatter pass per key byte on which the
// keys disagree. Bytes shared by every key cannot reorder anything and
// are skipped, so weights below 256 sort in a single pass. keys is used
// as scratch and is left in an unspecified order.
func OrderByKey(keys []uint64) []int {
	n := len(keys)
	out := make([]int, n)
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		and &= k
		or |= k
	}
	var shifts [8]uint // of the key bytes that differ, low byte first
	passes := 0
	for d := uint(0); d < 8; d++ {
		if (and^or)>>(8*d)&0xff != 0 {
			shifts[passes] = 8 * d
			passes++
		}
	}
	if passes == 0 {
		for i := range out {
			out[i] = i
		}
		return out
	}

	var counts [8][256]int
	for _, k := range keys {
		for p, shift := range shifts[:passes] {
			counts[p][byte(k>>shift)]++
		}
	}
	for p := range passes {
		sum := 0
		for b, c := range counts[p] {
			counts[p][b] = sum
			sum += c
		}
	}

	// The passes alternate between two id buffers; the first pass writes
	// the one that makes the last pass land in out.
	ids, next := out, []int(nil)
	var tmpKeys []uint64
	if passes > 1 {
		next = make([]int, n)
		tmpKeys = make([]uint64, n)
		if passes%2 == 0 {
			ids, next = next, ids
		}
	}
	src, dst := keys, tmpKeys
	first, shift := &counts[0], shifts[0]
	for i, k := range src {
		b := byte(k >> shift)
		pos := first[b]
		first[b]++
		ids[pos] = i
		if passes > 1 {
			dst[pos] = k
		}
	}
	for p := 1; p < passes; p++ {
		src, dst = dst, src
		from := ids
		ids, next = next, ids
		last := p == passes-1
		offs, shift := &counts[p], shifts[p]
		for i, k := range src {
			b := byte(k >> shift)
			pos := offs[b]
			offs[b]++
			ids[pos] = from[i]
			if !last {
				dst[pos] = k
			}
		}
	}
	return out
}
