package experiments

import (
	"fmt"
	"strings"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/order"
	"stencilivc/internal/sched"
	"stencilivc/internal/stkde"
)

// AblationReport holds the design-choice comparisons of DESIGN.md's
// testing strategy, measured on representative instances. The benchmark
// suite times the same comparisons; this report focuses on the quality
// numbers so cmd/experiments can print them alongside the figures.
type AblationReport struct {
	// Post-optimization ladder on one 2D instance.
	BD, BDP, BDIterated int64
	// DAG vs barrier-wave simulated makespans on P processors.
	Processors                int
	DAGMakespan, WaveMakespan int64
	// Uniform vs Nicol-balanced STKDE partitions: max box weight and the
	// K8 coloring bound each induces.
	UniformMaxBox, BalancedMaxBox int64
	UniformK8, BalancedK8         int64
	// SGK-3D sorted vs full permutations on a small 3D instance.
	SGKSorted, SGKFull int64
}

// RunAblations measures the report on seeded instances.
func RunAblations(seed int64, processors int) (*AblationReport, error) {
	if processors < 1 {
		return nil, fmt.Errorf("experiments: processors must be positive")
	}
	rep := &AblationReport{Processors: processors}

	// Post-optimization ladder.
	ds, err := datasets.Generate(datasets.Dengue, seed)
	if err != nil {
		return nil, err
	}
	g2, err := datasets.Voxelize2D(ds.Points, ds.Bounds, datasets.XY, 32, 32)
	if err != nil {
		return nil, err
	}
	bd, err := heuristics.Run(heuristics.BD, g2, nil)
	if err != nil {
		return nil, err
	}
	rep.BD = bd.MaxColor(g2)
	bdp, err := heuristics.Run(heuristics.BDP, g2, nil)
	if err != nil {
		return nil, err
	}
	rep.BDP = bdp.MaxColor(g2)
	order.IteratedGreedy(g2, bd, 10)
	rep.BDIterated = bd.MaxColor(g2)

	// DAG vs waves, on the BDP coloring.
	dag, err := sched.Build(g2, bdp)
	if err != nil {
		return nil, err
	}
	sim, err := sched.Simulate(dag, processors)
	if err != nil {
		return nil, err
	}
	rep.DAGMakespan = sim.Makespan
	rep.WaveMakespan, err = sched.SimulateWaves(g2, sched.ColorClasses(g2), processors)
	if err != nil {
		return nil, err
	}

	// Partitioning.
	bwS := ds.Bounds.SpanX() / 32
	bwT := ds.Bounds.SpanT() / 32
	uni, err := stkde.New(ds.Points, ds.Bounds, 32, 32, 32, 8, 8, 8, bwS, bwT)
	if err != nil {
		return nil, err
	}
	bal, err := stkde.NewBalanced(ds.Points, ds.Bounds, 32, 32, 32, 8, 8, 8, bwS, bwT, 10)
	if err != nil {
		return nil, err
	}
	rep.UniformMaxBox = core.MaxWeight(uni.BoxGrid())
	rep.BalancedMaxBox = core.MaxWeight(bal.BoxGrid())
	rep.UniformK8 = bounds.MaxK8(uni.BoxGrid())
	rep.BalancedK8 = bounds.MaxK8(bal.BoxGrid())

	// SGK-3D variants on a small instance (full permutations are costly).
	g3, err := datasets.Voxelize3D(ds.Points, ds.Bounds, 6, 6, 6)
	if err != nil {
		return nil, err
	}
	sgk, err := heuristics.Run(heuristics.SGK, g3, nil)
	if err != nil {
		return nil, err
	}
	rep.SGKSorted = sgk.MaxColor(g3)
	rep.SGKFull = heuristics.SmartLargestCliqueFirst3DFull(g3).MaxColor(g3)
	return rep, nil
}

// Format renders the report.
func (r *AblationReport) Format() string {
	var b strings.Builder
	b.WriteString("Ablations (design choices; see DESIGN.md and the Ablation benchmarks)\n")
	fmt.Fprintf(&b, "post-optimization ladder:   BD=%d  BDP=%d  BD+iterated-greedy=%d\n",
		r.BD, r.BDP, r.BDIterated)
	fmt.Fprintf(&b, "execution model (P=%d):      DAG makespan=%d  barrier-waves makespan=%d\n",
		r.Processors, r.DAGMakespan, r.WaveMakespan)
	fmt.Fprintf(&b, "STKDE partition:            uniform max-box=%d K8=%d | balanced max-box=%d K8=%d\n",
		r.UniformMaxBox, r.UniformK8, r.BalancedMaxBox, r.BalancedK8)
	fmt.Fprintf(&b, "SGK-3D block order:         weight-sorted=%d  full-permutations=%d\n",
		r.SGKSorted, r.SGKFull)
	return b.String()
}
