package parallel

import "sync"

// The solve-buffer arena (PR 7). One tile-parallel solve allocates a
// family of buffers whose sizes depend only on the instance shape:
// per-tile boundary and loser lists, the repair-round mark stamps, the
// scheduler deques, and the per-worker scratches. The service daemon
// solves a steady stream of same-shaped jobs, so before this arena it
// paid the full buffer warm-up on every request. Both pools retain
// grown capacity; acquire re-slices (and re-zeroes what must start
// clean) instead of allocating when the pooled object is big enough.

// scratchPool recycles worker scratches across forEach calls and
// solves; the warm win is the grown verts buffer (one tile's worth of
// vertex ids). The counter shard is re-assigned on every acquire by
// run.newScratch, and run.release flushes and zeroes the counters
// before returning one.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// solveBufs carries the per-solve buffers of the tile-parallel solver.
type solveBufs struct {
	// boundary holds each tile's halo cells; losers the per-tile
	// conflict losers of the current repair round. Inner slices keep
	// their capacity across solves.
	boundary [][]int
	losers   [][]int
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

// acquireBufs returns a solveBufs sized for tiles tiles, n vertices,
// and par workers, reusing pooled capacity where it suffices.
func acquireBufs(tiles, n, par int) *solveBufs {
	b := bufsPool.Get().(*solveBufs)
	b.boundary = resizeLists(b.boundary, tiles)
	b.losers = resizeLists(b.losers, tiles)
	if cap(b.mark) < n {
		b.mark = make([]int32, n)
	} else {
		b.mark = b.mark[:n]
		clear(b.mark)
	}
	if cap(b.queues) < par {
		// Never copy a wsRange (it embeds an atomic word): grow by
		// allocating fresh, not by append.
		b.queues = make([]wsRange, par)
	} else {
		b.queues = b.queues[:par]
	}
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

// resizeLists re-slices a slice-of-slices to length n, preserving the
// warm inner slices it already has and growing only when needed.
func resizeLists(s [][]int, n int) [][]int {
	if cap(s) < n {
		grown := make([][]int, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}
