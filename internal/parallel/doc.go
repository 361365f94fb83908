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
// intervals. A parallel conflict-detection sweep over each tile's low
// faces (the cells with a neighbor in an earlier tile) then finds every
// overlapping cross-tile pair and charges it to the pair's loser — the
// vertex with the higher (tile-id, vertex-id). Config.SpeculateBlind
// instead ignores cross-tile neighbors during speculation entirely,
// trading speed for a deterministic outcome.
//
// Repair is one sequential pass: every loser is cleared, then the losers
// are placed one at a time against all their neighbors, in tile order
// and ascending vertex id within a tile. Winners never move and a loser
// placed later sees every loser placed before it, so the pass leaves no
// conflict, and a second sweep confirms the fixpoint. The package
// invariant is that Greedy never returns an invalid or partial coloring:
// it only returns once a detection sweep finds zero cross-tile
// conflicts, and intra-tile validity holds by construction.
//
// All reads and writes of the shared start array during the concurrent
// phases go through sync/atomic, so the solver is clean under the race
// detector; the final coloring is published by the worker joins. The
// solve is observable end to end: the speculate and repair phases, every
// tile, and every sweep record flight-recorder spans, and the
// per-worker counters flush into the metrics bundle once per solve.
package parallel
