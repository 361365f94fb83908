package stencilivc_test

import (
	"context"
	"fmt"
	"time"

	"stencilivc"
)

// The smallest possible session: build a weighted stencil, run the
// paper's best general-purpose heuristic, and inspect the result.
func Example() {
	g := stencilivc.MustGrid2D(3, 3)
	copy(g.W, []int64{
		1, 2, 1,
		2, 4, 2,
		1, 2, 1,
	})
	c, alg, err := stencilivc.Best2D(g) // run all seven heuristics, keep the best
	if err != nil {
		panic(err)
	}
	_ = alg
	fmt.Println("valid:", c.Validate(g) == nil)
	fmt.Println("colors:", c.MaxColor(g))
	fmt.Println("lower bound:", stencilivc.LowerBound2D(g))
	// Output:
	// valid: true
	// colors: 9
	// lower bound: 9
}

// The Solver pipeline: SolveOptions carries a context (cancellation), a
// parallelism knob (the portfolio runs concurrently but returns results
// byte-identical to the sequential run), and a Stats sink counting
// placements and probes.
func ExampleBest() {
	g := stencilivc.MustGrid2D(8, 8)
	for v := range g.W {
		g.W[v] = int64(v%7) + 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stats stencilivc.Stats
	c, alg, err := stencilivc.Best(g, &stencilivc.SolveOptions{
		Ctx:         ctx,
		Parallelism: 4,
		Stats:       &stats,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("winner:", alg, "colors:", c.MaxColor(g))
	fmt.Println("placed all vertices:", stats.Placements() >= int64(g.Len()))
	// Output:
	// winner: BD colors: 26
	// placed all vertices: true
}

// Exact solving proves optimality on small instances.
func ExampleOptimal2D() {
	g := stencilivc.MustGrid2D(2, 2) // a K4: the optimum is the total weight
	copy(g.W, []int64{3, 1, 4, 1})
	res := stencilivc.Optimal2D(g, 100000)
	fmt.Println("optimal:", res.Optimal, "maxcolor:", res.MaxColor)
	// Output:
	// optimal: true maxcolor: 9
}

// A coloring is a schedule: orient the conflicts and simulate.
func ExampleSimulate() {
	g := stencilivc.MustGrid2D(4, 1)
	copy(g.W, []int64{5, 5, 5, 5})
	c, _ := stencilivc.Solve2D(stencilivc.GLL, g)
	dag, _ := stencilivc.TaskDAG(g, c)
	s, _ := stencilivc.Simulate(dag, 2)
	fmt.Println("makespan:", s.Makespan, "work:", dag.TotalWork())
	// Output:
	// makespan: 10 work: 20
}

// The decision procedure answers "colorable with K colors?" — here on
// two adjacent weight-7 tasks, which need exactly 14.
func ExampleDecide() {
	g := stencilivc.MustGrid2D(2, 1)
	copy(g.W, []int64{7, 7})
	v13, _ := stencilivc.Decide(g, 13, 0)
	v14, _ := stencilivc.Decide(g, 14, 0)
	fmt.Println("K=13:", v13)
	fmt.Println("K=14:", v14)
	// Output:
	// K=13: infeasible
	// K=14: feasible
}

// Nicol's 1D partitioning balances contiguous loads exactly.
func ExamplePartitionLoads1D() {
	cuts, bottleneck, _ := stencilivc.PartitionLoads1D([]int64{4, 1, 1, 4}, 2)
	fmt.Println("cuts:", cuts, "bottleneck:", bottleneck)
	// Output:
	// cuts: [2] bottleneck: 5
}
