package parallel

import (
	"sync"

	"stencilivc/internal/grid"
)

// The solve-buffer arena (PR 7). One tile-parallel solve allocates a
// family of buffers whose sizes depend only on the instance shape: the
// loser spans, the repair-round mark stamps, the scheduler deques, and
// the per-worker scratches. The service daemon solves a steady stream
// of same-shaped jobs, so before this arena it paid the full buffer
// warm-up on every request. Both pools retain grown capacity; acquire
// re-slices (and re-zeroes what must start clean) instead of allocating
// when the pooled object is big enough. Every buffer is one flat slice,
// so even a cold solve, whose pools a GC emptied, allocates a handful
// of objects whatever its tile count.

// scratchPool recycles worker scratches across forEach calls and
// solves; the warm win is the grown verts buffer (one tile's worth of
// vertex ids). run.newScratch rebinds the kernel on every acquire, and
// run.release flushes and zeroes the counters before returning one.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// solveBufs carries the per-solve buffers of the tile-parallel solver.
type solveBufs struct {
	// losers holds the conflict losers of the current repair round, tile
	// i's in losers[loserOff[i]:loserEnd[i]]. A tile's span is as long as
	// its low-face cell list, the most it can lose, so the workers of a
	// detection sweep write disjoint spans.
	losers             []int
	loserOff, loserEnd []int
	// mark is the repair-round loser stamp array (see run.mark); it
	// must start all-zero because round stamps restart at 0 each solve.
	mark []int32
	// queues are the work-stealing deques, one per worker.
	queues []wsRange
	// groups is the repair-round group list, resliced every round.
	groups []tileGroup
}

// bufsPool recycles solveBufs across solves.
var bufsPool = sync.Pool{New: func() any { return new(solveBufs) }}

// acquireBufs returns a solveBufs sized for the tiling tl, n vertices,
// and par workers, reusing pooled capacity where it suffices.
func acquireBufs(tl *grid.Tiling, n, par int) *solveBufs {
	b := bufsPool.Get().(*solveBufs)
	b.loserOff = resize(b.loserOff, len(tl.Tiles)+1)
	b.loserEnd = resize(b.loserEnd, len(tl.Tiles))
	off := 0
	for i, t := range tl.Tiles {
		b.loserOff[i] = off
		off += tl.LowFaceLen(t)
	}
	b.loserOff[len(tl.Tiles)] = off
	b.losers = resize(b.losers, off)
	if cap(b.mark) < n {
		b.mark = make([]int32, n)
	} else {
		b.mark = b.mark[:n]
		clear(b.mark)
	}
	// Never copy a wsRange (it embeds an atomic word): resize grows by
	// allocating fresh, not by append.
	b.queues = resize(b.queues, par)
	b.groups = b.groups[:0]
	return b
}

// releaseBufs returns b to the pool, keeping every buffer's capacity
// warm for the next same-shaped solve.
func releaseBufs(b *solveBufs) {
	if b != nil {
		bufsPool.Put(b)
	}
}

// resize re-slices s to length n, allocating a fresh slice only when
// its capacity is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
