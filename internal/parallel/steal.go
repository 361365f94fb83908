package parallel

import "sync/atomic"

// The work-stealing tile scheduler (PR 7). forEach used to hand out
// indices from one shared atomic counter, which has two costs at scale:
// every claim bounces the counter's cache line across all workers, and
// a worker's tiles are scattered over the whole index space instead of
// following the space-filling tile order (no locality between
// consecutive tiles of one worker). The scheduler here fixes both:
//
//   - Each worker starts with a contiguous index range [k·n/par,
//     (k+1)·n/par), so consecutive tiles share halo rows and stay warm
//     in cache, and the common case (balanced work) claims indices with
//     a CAS on a line no other worker touches.
//   - A worker that drains its range steals half of a victim's
//     remainder (Chase-Lev-style steal-half, adapted to ranges: since
//     the work set is a fixed integer interval, the whole deque
//     collapses to one packed {lo,hi} word). Heavy-weight regions
//     therefore stop serializing rounds: the workers that finish light
//     ranges pull the heavy range apart instead of idling.
//
// Determinism is unaffected: every index is still processed exactly
// once by exactly one worker, and the repair pass places the losers on
// the coordinator in (tile-id, vertex-id) order, whichever worker swept
// their tile. Panic containment is also unchanged; contain() wraps every
// fn call exactly as before.

// wsRange is one worker's range deque: the packed half-open interval
// [lo, hi) of unclaimed indices, lo in the low 32 bits and hi in the
// high 32 bits of one atomic word. The owner pops lo with a CAS;
// thieves CAS the top half away. Both mutate the same word, so every
// transition is a single successful CAS and the range can never be
// claimed twice. The padding keeps neighboring deques on distinct
// cache lines — the whole point of per-worker ranges is that the
// common-case CAS does not cross cores.
type wsRange struct {
	bounds atomic.Uint64
	_      [7]uint64 // pad to a 64-byte cache line
}

// packRange packs [lo, hi) into one word. Tile counts are bounded far
// below 2^31 (the grid constructors cap cells at 2^28), so 32 bits per
// bound are plenty.
func packRange(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// unpackRange splits the packed word back into lo and hi.
func unpackRange(b uint64) (lo, hi uint32) { return uint32(b), uint32(b >> 32) }

// reset hands the deque a fresh range; only called before the workers
// start (or by the owner on its own empty deque after a steal, which
// is race-free because every thief CAS fails on an empty range).
func (q *wsRange) reset(lo, hi int) { q.bounds.Store(packRange(uint32(lo), uint32(hi))) }

// pop claims the lowest unclaimed index of the owner's range. It
// reports false when the range is empty.
func (q *wsRange) pop() (int, bool) {
	for {
		b := q.bounds.Load()
		lo, hi := unpackRange(b)
		if lo >= hi {
			return 0, false
		}
		if q.bounds.CompareAndSwap(b, packRange(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// stealHalf removes and returns the upper half (rounded down, at least
// one index) of the deque's remainder. It reports false when the deque
// is empty. Taking the top keeps the victim working on its locality-
// ordered prefix while the thief gets a still-contiguous suffix.
func (q *wsRange) stealHalf() (lo, hi int, ok bool) {
	for {
		b := q.bounds.Load()
		qlo, qhi := unpackRange(b)
		n := qhi - qlo
		if n == 0 {
			return 0, 0, false
		}
		take := n - n/2 // at least 1
		if q.bounds.CompareAndSwap(b, packRange(qlo, qhi-take)) {
			return int(qhi - take), int(qhi), true
		}
	}
}

// steal refills worker self's (empty) deque with half of some victim's
// remainder, scanning the other deques round-robin from self+1 so
// thieves spread over victims instead of ganging up on worker 0. It
// reports false — the worker's termination signal — only after one
// full scan found every deque empty. A range that is mid-flight
// between a thief's CAS and its reset is invisible to that scan, so a
// worker may retire while a little work remains; that work is still
// processed exactly once (by the thief holding it), the early sleeper
// just stops helping. With a fixed work set this never loses an index.
func (r *run) steal(qs []wsRange, self int, w *scratch) bool {
	for off := 1; off < len(qs); off++ {
		v := self + off
		if v >= len(qs) {
			v -= len(qs)
		}
		if lo, hi, ok := qs[v].stealHalf(); ok {
			qs[self].reset(lo, hi)
			w.steals++
			return true
		}
	}
	return false
}
