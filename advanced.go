package stencilivc

import (
	"io"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/milp"
	"stencilivc/internal/order"
	"stencilivc/internal/rectpart"
	"stencilivc/internal/sched"
	"stencilivc/internal/stkde"
)

// BoundsReport aggregates the pair, clique, and odd-cycle lower bounds.
type BoundsReport = bounds.Report

// Advanced entry points: ordering strategies and post-optimization from
// the related-work toolbox (Section II-B), the MILP export matching the
// paper's Gurobi runs, rectilinear partitioning (the application's
// load-balancing step), and the classic wave-execution baseline.

// IteratedGreedy applies Culberson-style recoloring rounds to an existing
// valid coloring, alternating end-descending and start-ascending passes;
// maxcolor never increases. Returns the number of improving rounds.
func IteratedGreedy(g Graph, c Coloring, rounds int) int {
	return order.IteratedGreedy(g, c, rounds)
}

// Recolor compacts a valid coloring by re-placing each vertex of the
// order at its lowest feasible start; maxcolor never increases.
func Recolor(g Graph, c Coloring, vertexOrder []int) {
	order.Recolor(g, c, vertexOrder)
}

// SmallestLastOrder returns the Matula-Beck smallest-last vertex order.
func SmallestLastOrder(g Graph) []int { return order.SmallestLast(g) }

// DegreeOrder returns the Welsh-Powell largest-degree-first vertex order.
func DegreeOrder(g Graph) []int { return order.ByDegreeDesc(g) }

// GreedyWithOrder colors g greedily in the given vertex order, the
// building block behind every ordering heuristic.
func GreedyWithOrder(g Graph, vertexOrder []int) (Coloring, error) {
	return core.GreedyColor(g, vertexOrder)
}

// WriteMILP emits the instance's mixed-integer program in CPLEX LP
// format — the formulation the paper solved with Gurobi (Section VI-D).
// horizon <= 0 derives an upper bound from a greedy pass.
func WriteMILP(w io.Writer, g Graph, horizon int64) error {
	m, err := milp.Build(g, horizon)
	if err != nil {
		return err
	}
	return m.WriteLP(w)
}

// PartitionLoads1D optimally splits a load array into k contiguous parts
// minimizing the heaviest part (Nicol's probe algorithm).
func PartitionLoads1D(loads []int64, k int) (cuts []int, bottleneck int64, err error) {
	return rectpart.Partition1D(loads, k)
}

// PartitionGrid2D computes a load-balanced rectilinear partition of a 2D
// weight grid by alternating exact per-axis refinement.
func PartitionGrid2D(g *Grid2D, kx, ky, rounds int) (cutsX, cutsY []int, bottleneck int64, err error) {
	cuts, bottleneck, err := rectpart.Partition(g, [3]int{kx, ky, 1}, rounds)
	return cuts[0], cuts[1], bottleneck, err
}

// PartitionGrid3D is PartitionGrid2D for 3D weight grids.
func PartitionGrid3D(g *Grid3D, kx, ky, kz, rounds int) (cutsX, cutsY, cutsZ []int, bottleneck int64, err error) {
	cuts, bottleneck, err := rectpart.Partition(g, [3]int{kx, ky, kz}, rounds)
	return cuts[0], cuts[1], cuts[2], bottleneck, err
}

// ColorClasses partitions the positive vertices into conflict-free
// classes with a classic distance-1 greedy coloring — the traditional
// barrier-wave schedule interval coloring improves on.
func ColorClasses(g Graph) [][]int { return sched.ColorClasses(g) }

// SimulateWaves models barrier-synchronized class-by-class execution on
// p processors, the baseline the DAG execution (Simulate) is compared
// against.
func SimulateWaves(g Graph, classes [][]int, p int) (int64, error) {
	return sched.SimulateWaves(g, classes, p)
}

// NewBalancedSTKDE is NewSTKDE with a load-balanced rectilinear box
// partition (Nicol refinement over a bandwidth-constrained helper grid).
func NewBalancedSTKDE(points []Point, bounds Bounds,
	vx, vy, vt, bx, by, bt int, bwS, bwT float64) (*STKDE, error) {
	return stkde.NewBalanced(points, bounds, vx, vy, vt, bx, by, bt, bwS, bwT, 10)
}

// ReadPointsCSV loads x,y,t events from CSV, for users with real data.
func ReadPointsCSV(r io.Reader) ([]Point, error) { return datasets.ReadPointsCSV(r) }

// WritePointsCSV emits events as x,y,t CSV rows.
func WritePointsCSV(w io.Writer, points []Point) error {
	return datasets.WritePointsCSV(w, points)
}

// BoundsReport2D computes all Section III lower bounds of a 2D instance;
// cycleBudget caps the odd-cycle search (0 disables it).
func BoundsReport2D(g *Grid2D, cycleBudget int) BoundsReport {
	return bounds.Report2D(g, cycleBudget)
}

// BoundsReport3D is BoundsReport2D for 27-pt stencils.
func BoundsReport3D(g *Grid3D, cycleBudget int) BoundsReport {
	return bounds.Report3D(g, cycleBudget)
}

// RepairColoring incrementally fixes a coloring after vertex weights
// changed (dynamic workloads recolor every step; repair keeps most of the
// previous schedule). Returns the number of vertices that moved; the
// coloring is complete and valid afterwards.
func RepairColoring(g Graph, c Coloring) int { return order.Repair(g, c) }
