// Package core defines the fundamental types of the interval vertex
// coloring (IVC) problem: color intervals, weighted graphs, colorings,
// solve options, and the lowest-fit interval placement engine shared by
// every greedy heuristic in this module.
//
// Terminology follows Durrman & Saule, "Coloring the Vertices of 9-pt and
// 27-pt Stencils with Intervals" (IPPS 2022), Section II: a vertex v of
// weight w(v) is colored with the half-open interval
// [start(v), start(v)+w(v)); a coloring is valid when neighboring vertices
// receive disjoint intervals, and its cost is
// maxcolor = max_v start(v)+w(v).
//
// The package upholds three invariants the rest of the module builds on:
//
//   - Validity by construction. LowestFit returns the smallest start whose
//     interval avoids every occupied neighbor interval it is shown, so a
//     greedy pass that always places against all colored neighbors can
//     only produce valid colorings (Section V-A).
//
//   - One placement kernel. FitScratch is the only lowest-fit engine:
//     every solver binds one per solve (the tile workers share one
//     binding: weight slice, interior offset table and uniform-weight
//     verdict), places through its single gather loop and dispatch
//     ladder (packed free map for uniform weights, streaming scan, sort
//     for long general-graph lists), and flushes its plain per-solve
//     tallies into the Stats sink and the obsv metrics bundle with
//     Flush — the only writer of the placement, probe and
//     occupancy-length counters.
//
//   - An allocation-free hot path. A placement on a Lattice (both
//     stencils) performs zero heap allocations: an interior vertex's
//     neighbors come from the bound offset table and a boundary
//     vertex's from the grid's Neighbors, both written into a
//     fixed-size array inside the kernel, as is the occupancy list,
//     sized by MaxFixedDegree = 26, the 27-pt stencil's degree; weights
//     are read from the bound slice. Tests pin this to 0 allocs/op,
//     including when flushing into Stats and a metrics bundle.
//
// SolveOptions threads the cross-cutting concerns — context cancellation,
// parallelism, a Stats sink, and the obsv trace/metrics handles — through
// every solver. A nil *SolveOptions is always valid and means "defaults,
// nothing observed"; all accessors are nil-receiver-safe.
package core
