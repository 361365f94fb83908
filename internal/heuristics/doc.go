// Package heuristics implements the coloring algorithms evaluated in the
// paper (Section V): the greedy orderings GLL, GZO, and GLF (V-A); the
// clique-block heuristics GKF and SGK (V-A); and the Bipartite
// Decomposition approximation BD with its post-optimized variant BDP
// (V-B), a 2-approximation in 2D and 4-approximation in 3D. The BDL
// layer-decomposition extension and the tile-parallel PGLL/PGLF solvers
// register here too, outside the paper's seven-algorithm evaluation set.
//
// The package invariant: every solver returns a complete, valid coloring
// or an error — never a partial or conflicting one. Validity holds by
// construction (each placement uses the lowest-fit engine against all
// colored neighbors) and is re-verified by property tests.
//
// Dispatch is registry-based: each algorithm self-registers a Descriptor
// from init() in the file that implements it, and Run — the only way to
// run an algorithm — All(), and the Portfolio runner consult that one
// table. No solver switches on the grid type: BD is one pass over a
// core.Lattice of either depth (rows colored as chains, odd rows lifted
// by RC, odd layers by LC), BDP adds a recoloring pass, and BDL applies
// BDP to each layer of a 27-pt grid. Solvers accept a *core.SolveOptions
// carrying a context (polled at line/block granularity, so huge grids
// are cancellable), a parallelism knob for portfolio runs and the
// parallel solvers, a stats sink, and the obsv trace/metrics handles;
// Run is the single place where a solve's span, wall time, allocations,
// and maxcolor are recorded.
package heuristics
