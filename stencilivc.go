// Package stencilivc is a Go implementation of interval vertex coloring
// for 9-pt 2D and 27-pt 3D stencil graphs, reproducing Durrman & Saule,
// "Coloring the Vertices of 9-pt and 27-pt Stencils with Intervals"
// (IPPS 2022).
//
// Each vertex v of a weighted stencil receives a half-open interval of
// colors [start(v), start(v)+w(v)); neighboring vertices' intervals must
// be disjoint, and the objective is to minimize the largest color used
// (maxcolor). The model schedules grid-partitioned computations where a
// task's weight is its expected runtime: the coloring is a conflict-free
// schedule whose maxcolor is the critical-path length.
//
// # Quick start
//
//	g := stencilivc.MustGrid2D(4, 4)
//	for v := range g.W {
//		g.W[v] = int64(v % 5)
//	}
//	c, err := stencilivc.Solve2D(stencilivc.BDP, g)
//	if err != nil { ... }
//	fmt.Println("colors:", c.MaxColor(g), "lower bound:", stencilivc.LowerBound2D(g))
//
// The seven algorithms of the paper are available (GLL, GZO, GLF, GKF,
// SGK, BD, BDP); BD is a proven 2-approximation in 2D and 4-approximation
// in 3D. Exact solving, scheduling, and the STKDE demo application live
// behind Optimal2D/Optimal3D, TaskDAG/Simulate, and the cmd/ and examples/
// trees.
package stencilivc

import (
	"io"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/exact"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/sched"
)

// Core types, re-exported for users of the public API.
type (
	// Graph is the weighted-graph view all algorithms accept.
	Graph = core.Graph
	// Coloring assigns each vertex its interval start.
	Coloring = core.Coloring
	// Interval is a half-open interval of colors.
	Interval = core.Interval
	// Grid2D is an X×Y 9-pt stencil instance.
	Grid2D = grid.Grid2D
	// Grid3D is an X×Y×Z 27-pt stencil instance.
	Grid3D = grid.Grid3D
	// Stencil is the dimension-generic stencil view: both *Grid2D and
	// *Grid3D satisfy it, and the Solve/Best/Portfolio entry points
	// accept it directly.
	Stencil = grid.Stencil
	// Algorithm names one of the paper's heuristics.
	Algorithm = heuristics.Algorithm
	// SolveOptions carries a context.Context (cancellation, polled at
	// line/block granularity), a Parallelism knob for portfolio solves,
	// and the optional observability sinks (Stats, Metrics, Events,
	// Sampler, TraceCtx). A nil *SolveOptions is always valid.
	SolveOptions = core.SolveOptions
	// Stats counts the placements and probes of a solve; safe for
	// concurrent use. Per-phase wall times are flight-recorder spans.
	Stats = core.Stats
	// AlgorithmInfo describes one registered algorithm.
	AlgorithmInfo = heuristics.Descriptor
	// DAG is the task dependency graph induced by a coloring.
	DAG = sched.DAG
	// Schedule is a simulated parallel execution of a DAG.
	Schedule = sched.Schedule
	// ExactResult reports an exact optimization attempt.
	ExactResult = exact.Result
)

// The algorithms evaluated in the paper (Section V).
const (
	GLL = heuristics.GLL // Greedy Line-by-Line
	GZO = heuristics.GZO // Greedy Z-Order
	GLF = heuristics.GLF // Greedy Largest First
	GKF = heuristics.GKF // Greedy Largest Clique First
	SGK = heuristics.SGK // Smart Greedy Largest Clique First
	BD  = heuristics.BD  // Bipartite Decomposition (2-approx 2D / 4-approx 3D)
	BDP = heuristics.BDP // Bipartite Decomposition + Post optimization

	// BDL is an extension beyond the paper: per-layer BDP with a global
	// post pass (3D only, not part of Algorithms()).
	BDL = heuristics.BDL

	// PGLL and PGLF are extensions beyond the paper: the tile-parallel
	// speculative greedy solvers of internal/parallel, with tile-local
	// line-by-line and largest-first orders. They honor
	// SolveOptions.Parallelism as the tile-worker count, so -par (and
	// Parallelism > 1) accelerates a single solve, not just the
	// portfolio. Not part of Algorithms().
	PGLL = heuristics.PGLL
	PGLF = heuristics.PGLF
)

// Algorithms returns all seven algorithm names in the paper's order.
func Algorithms() []Algorithm { return heuristics.All() }

// AlgorithmRegistry returns every registered algorithm descriptor (the
// paper's seven plus extensions such as BDL) sorted by paper order. The
// registry is the single dispatch table behind Solve, Best, Portfolio,
// and the cmd tools.
func AlgorithmRegistry() []AlgorithmInfo { return heuristics.Descriptors() }

// NewGrid2D allocates a zero-weight X×Y 9-pt stencil instance.
func NewGrid2D(x, y int) (*Grid2D, error) { return grid.NewGrid2D(x, y) }

// MustGrid2D is NewGrid2D that panics on invalid dimensions.
func MustGrid2D(x, y int) *Grid2D { return grid.MustGrid2D(x, y) }

// NewGrid3D allocates a zero-weight X×Y×Z 27-pt stencil instance.
func NewGrid3D(x, y, z int) (*Grid3D, error) { return grid.NewGrid3D(x, y, z) }

// MustGrid3D is NewGrid3D that panics on invalid dimensions.
func MustGrid3D(x, y, z int) *Grid3D { return grid.MustGrid3D(x, y, z) }

// FromWeights2D builds a 2D instance from row-major weights.
func FromWeights2D(x, y int, weights []int64) (*Grid2D, error) {
	return grid.FromWeights2D(x, y, weights)
}

// FromWeights3D builds a 3D instance from x-fastest weights.
func FromWeights3D(x, y, z int, weights []int64) (*Grid3D, error) {
	return grid.FromWeights3D(x, y, z, weights)
}

// ReadInstance parses the ivc2d/ivc3d text format; exactly one of the
// returned grids is non-nil.
func ReadInstance(r io.Reader) (*Grid2D, *Grid3D, error) { return grid.Read(r) }

// WriteInstance2D encodes a 2D instance in the text format.
func WriteInstance2D(w io.Writer, g *Grid2D) error { return grid.Write2D(w, g) }

// WriteInstance3D encodes a 3D instance in the text format.
func WriteInstance3D(w io.Writer, g *Grid3D) error { return grid.Write3D(w, g) }

// Solve colors a stencil instance of either dimensionality with the
// named algorithm, honoring opts (context cancellation, stats). The
// returned coloring is always complete and valid; on error (unknown
// algorithm, dimension mismatch, canceled context) no coloring is
// returned. A nil opts means background context, sequential, no stats.
func Solve(alg Algorithm, s Stencil, opts *SolveOptions) (Coloring, error) {
	return heuristics.Run(alg, s, opts)
}

// Best runs the paper's full algorithm portfolio on s and returns the
// coloring with the smallest maxcolor together with the winning
// algorithm's name. With opts.Parallelism > 1 the portfolio runs
// concurrently; the result is byte-identical to the sequential run (ties
// break by lowest maxcolor, then paper order).
func Best(s Stencil, opts *SolveOptions) (Coloring, Algorithm, error) {
	return heuristics.Best(s, opts)
}

// Portfolio is Best over a caller-chosen algorithm list; ties break by
// position in algs.
func Portfolio(s Stencil, algs []Algorithm, opts *SolveOptions) (Coloring, Algorithm, error) {
	return heuristics.Portfolio(s, algs, opts)
}

// Solve2D colors a 9-pt stencil instance with the named algorithm. It is
// a compatibility wrapper over Solve with default options.
func Solve2D(alg Algorithm, g *Grid2D) (Coloring, error) { return Solve(alg, g, nil) }

// Solve3D colors a 27-pt stencil instance with the named algorithm.
func Solve3D(alg Algorithm, g *Grid3D) (Coloring, error) { return Solve(alg, g, nil) }

// Best2D runs every algorithm and returns the coloring with the smallest
// maxcolor together with the winning algorithm's name. It is a
// compatibility wrapper over Best with default options.
func Best2D(g *Grid2D) (Coloring, Algorithm, error) { return Best(g, nil) }

// Best3D is Best2D for 27-pt stencils.
func Best3D(g *Grid3D) (Coloring, Algorithm, error) { return Best(g, nil) }

// LowerBound2D returns the max-K4 clique lower bound (Section III-A); no
// valid coloring of g can use fewer colors.
func LowerBound2D(g *Grid2D) int64 { return bounds.MaxK4(g) }

// LowerBound3D returns the max-K8 clique lower bound.
func LowerBound3D(g *Grid3D) int64 { return bounds.MaxK8(g) }

// Optimal2D attempts to solve g exactly within nodeBudget search nodes
// (0 picks a default); Result.Optimal reports whether the optimum was
// proven.
func Optimal2D(g *Grid2D, nodeBudget int) ExactResult {
	return exact.Optimize(g, exact.OptimizeOptions{
		LowerBound: bounds.Combined2D(g, 100_000),
		NodeBudget: nodeBudget,
	})
}

// Optimal3D is Optimal2D for 27-pt stencils.
func Optimal3D(g *Grid3D, nodeBudget int) ExactResult {
	return exact.Optimize(g, exact.OptimizeOptions{
		LowerBound: bounds.Combined3D(g, 100_000),
		NodeBudget: nodeBudget,
	})
}

// TaskDAG orients the stencil's conflict edges by the coloring,
// producing the dependency DAG Section VII hands to the task runtime.
func TaskDAG(g Graph, c Coloring) (*DAG, error) { return sched.Build(g, c) }

// Simulate list-schedules a DAG on p processors deterministically.
func Simulate(d *DAG, p int) (*Schedule, error) { return sched.Simulate(d, p) }
