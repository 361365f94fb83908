// Package parallel implements the tile-parallel speculative greedy
// solver for 9-pt and 27-pt stencils (registered as PGLL and PGLF): the
// speculate/repair strategy that scales classic distance-1 graph
// coloring (Gebremedhin–Manne style), adapted to the interval vertex
// coloring problem of the paper's Section V greedy family.
//
// The grid is partitioned into cache-sized tiles (2D: T×T blocks, 3D:
// T×T×T bricks). All tiles are colored concurrently on a worker pool
// honoring SolveOptions.Parallelism; inside a tile the placement is the
// ordinary sequential lowest-fit greedy, so intra-tile edges are valid by
// construction. Cross-tile (halo) neighbors are read optimistically —
// whatever start the neighbor currently has, including "uncolored" — so
// two adjacent tiles racing on a boundary edge may produce overlapping
// intervals. A conflict-detection sweep over the tile boundaries then
// finds every overlapping cross-tile pair and recolors the pair's loser —
// the vertex with the higher (tile-id, vertex-id) — and the
// detect/recolor loop runs to a fixpoint. Config.SpeculateBlind instead
// ignores cross-tile neighbors during speculation entirely, trading
// speed for a deterministic outcome.
//
// The package invariant is that Greedy never returns an invalid or
// partial coloring: it only returns once the detection sweep reaches a
// fixpoint with zero cross-tile conflicts, and intra-tile validity holds
// by construction.
//
// Termination: winners never move, a recolored loser placed against a
// winner's (stable) interval can never conflict with it again, and
// same-tile losers are recolored sequentially by one worker; so in every
// round the smallest (tile-id, vertex-id) member of each conflict
// component leaves the conflict set for good — the set strictly shrinks.
// As a belt-and-braces guarantee the solver switches to a single
// sequential repair pass (which reaches a fixpoint in one sweep) if the
// conflict set ever stops shrinking or a round budget is exhausted.
//
// All reads and writes of the shared start array during the concurrent
// phases go through sync/atomic, so the solver is clean under the race
// detector; the final coloring is published by the worker joins. The
// solve is observable end to end: the speculate and repair phases, every
// tile, and every repair round record flight-recorder spans, and
// per-worker counters flush into the metrics bundle on dedicated shards.
package parallel
