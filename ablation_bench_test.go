// Ablation benchmarks for the design choices DESIGN.md calls out: the
// BDP recoloring order, SGK's permutation trials, DAG execution versus
// barrier waves, uniform versus load-balanced STKDE partitions, the
// odd-cycle search budget, and the competing exact solvers. Each bench
// reports the quality metric the choice trades against time.
package stencilivc

import (
	"fmt"
	"math/rand"
	"testing"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/exact"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/order"
	"stencilivc/internal/sched"
	"stencilivc/internal/stkde"
)

func ablationGrid2D(seed int64, n int) *Grid2D {
	rng := rand.New(rand.NewSource(seed))
	g := MustGrid2D(n, n)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(50))
	}
	return g
}

// ablationSolve runs alg through the registry; the ablation instances
// are valid and never canceled, so an error is a bug.
func ablationSolve(alg heuristics.Algorithm, s Stencil) Coloring {
	c, err := heuristics.Run(alg, s, nil)
	if err != nil {
		panic(err)
	}
	return c
}

// BenchmarkAblationBDPOrder compares BDP's block-structured recoloring
// order against naive alternatives applied to the same BD coloring.
func BenchmarkAblationBDPOrder(b *testing.B) {
	g := ablationGrid2D(61, 32)
	variants := []struct {
		name string
		run  func() int64
	}{
		{"bd-only", func() int64 {
			return ablationSolve(heuristics.BD, g).MaxColor(g)
		}},
		{"bdp-block-order", func() int64 {
			return ablationSolve(heuristics.BDP, g).MaxColor(g)
		}},
		{"bd+random-recolor", func() int64 {
			c := ablationSolve(heuristics.BD, g)
			order.Recolor(g, c, order.Shuffled(g.Len(), 1))
			return c.MaxColor(g)
		}},
		{"bd+iterated-greedy", func() int64 {
			c := ablationSolve(heuristics.BD, g)
			order.IteratedGreedy(g, c, 10)
			return c.MaxColor(g)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var colors int64
			for i := 0; i < b.N; i++ {
				colors = v.run()
			}
			b.ReportMetric(float64(colors), "colors")
		})
	}
}

// BenchmarkAblationSGKPermutations contrasts GKF (one order per block)
// with SGK (all orders per block) on quality and cost.
func BenchmarkAblationSGKPermutations(b *testing.B) {
	g := ablationGrid2D(62, 32)
	b.Run("GKF", func(b *testing.B) {
		var colors int64
		for i := 0; i < b.N; i++ {
			c := ablationSolve(heuristics.GKF, g)
			colors = c.MaxColor(g)
		}
		b.ReportMetric(float64(colors), "colors")
	})
	b.Run("SGK", func(b *testing.B) {
		var colors int64
		for i := 0; i < b.N; i++ {
			c := ablationSolve(heuristics.SGK, g)
			colors = c.MaxColor(g)
		}
		b.ReportMetric(float64(colors), "colors")
	})
}

// BenchmarkAblationDAGvsWaves quantifies Section VII's execution model:
// the interval-coloring DAG against barrier-synchronized classic color
// waves, by simulated makespan on 8 processors.
func BenchmarkAblationDAGvsWaves(b *testing.B) {
	g := ablationGrid2D(63, 24)
	c, err := heuristics.Run(heuristics.BDP, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sched.Build(g, c)
	if err != nil {
		b.Fatal(err)
	}
	classes := sched.ColorClasses(g)
	b.Run("dag", func(b *testing.B) {
		var ms int64
		for i := 0; i < b.N; i++ {
			s, err := sched.Simulate(d, 8)
			if err != nil {
				b.Fatal(err)
			}
			ms = s.Makespan
		}
		b.ReportMetric(float64(ms), "makespan")
	})
	b.Run("waves", func(b *testing.B) {
		var ms int64
		for i := 0; i < b.N; i++ {
			w, err := sched.SimulateWaves(g, classes, 8)
			if err != nil {
				b.Fatal(err)
			}
			ms = w
		}
		b.ReportMetric(float64(ms), "makespan")
	})
}

// BenchmarkAblationPartition compares uniform and Nicol-balanced STKDE
// box partitions by the coloring lower bound they induce (the heaviest
// K8, which caps how well any coloring can do).
func BenchmarkAblationPartition(b *testing.B) {
	ds, err := datasets.Generate(datasets.Dengue, 1)
	if err != nil {
		b.Fatal(err)
	}
	bwS := ds.Bounds.SpanX() / 32
	bwT := ds.Bounds.SpanT() / 32
	build := []struct {
		name string
		f    func() (*stkde.App, error)
	}{
		{"uniform", func() (*stkde.App, error) {
			return stkde.New(ds.Points, ds.Bounds, 32, 32, 32, 8, 8, 8, bwS, bwT)
		}},
		{"balanced", func() (*stkde.App, error) {
			return stkde.NewBalanced(ds.Points, ds.Bounds, 32, 32, 32, 8, 8, 8, bwS, bwT, 10)
		}},
	}
	for _, v := range build {
		b.Run(v.name, func(b *testing.B) {
			var lb int64
			for i := 0; i < b.N; i++ {
				app, err := v.f()
				if err != nil {
					b.Fatal(err)
				}
				lb = bounds.MaxK8(app.BoxGrid())
			}
			b.ReportMetric(float64(lb), "K8-bound")
		})
	}
}

// BenchmarkAblationOddCycleBudget shows the lower-bound quality the cycle
// search buys per node budget on the Figure 3 instance.
func BenchmarkAblationOddCycleBudget(b *testing.B) {
	g, err := FromWeights2D(8, 6, []int64{
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 7, 0, 0, 0, 0, 0, 0,
		7, 0, 3, 0, 0, 0, 8, 0,
		9, 0, 0, 9, 0, 7, 0, 1,
		0, 6, 2, 0, 7, 0, 0, 3,
		0, 0, 0, 0, 0, 1, 3, 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			var bound int64
			for i := 0; i < b.N; i++ {
				bound = bounds.OddCycle(g, g.Len(), budget)
			}
			b.ReportMetric(float64(bound), "bound")
		})
	}
}

// BenchmarkAblationExactSolvers races the three exact methods on one
// small stencil (they must agree; see the exact package tests).
func BenchmarkAblationExactSolvers(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	g := MustGrid2D(3, 3)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(5))
	}
	lb := bounds.MaxK4(g)
	b.Run("cp-optimize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := exact.Optimize(g, exact.OptimizeOptions{LowerBound: lb})
			if !res.Optimal {
				b.Fatal("not optimal")
			}
		}
	})
	b.Run("order-bnb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := exact.SolveByOrder(g, lb, 0)
			if !res.Optimal {
				b.Fatal("not optimal")
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.BruteForce(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOrderings compares the extra ordering strategies
// against the paper's on one instance.
func BenchmarkAblationOrderings(b *testing.B) {
	g := ablationGrid2D(65, 32)
	orders := []struct {
		name string
		ord  func() []int
	}{
		{"row-major", func() []int { return order.Identity(g.Len()) }},
		{"weight-desc", func() []int { return order.ByWeightDesc(g) }},
		{"degree-desc", func() []int { return order.ByDegreeDesc(g) }},
		{"smallest-last", func() []int { return order.SmallestLast(g) }},
		{"random", func() []int { return order.Shuffled(g.Len(), 7) }},
	}
	for _, v := range orders {
		b.Run(v.name, func(b *testing.B) {
			var colors int64
			for i := 0; i < b.N; i++ {
				c, err := core.GreedyColor(g, v.ord())
				if err != nil {
					b.Fatal(err)
				}
				colors = c.MaxColor(g)
			}
			b.ReportMetric(float64(colors), "colors")
		})
	}
}

// BenchmarkAblationSGK3DPermutations quantifies the shortcut the paper
// took in 3D: weight-sorted K8 ordering (SGK) versus trying all
// permutations per block (the variant the paper rejected as too slow).
func BenchmarkAblationSGK3DPermutations(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	g := MustGrid3D(6, 6, 6)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(40))
	}
	b.Run("sorted", func(b *testing.B) {
		var colors int64
		for i := 0; i < b.N; i++ {
			c := ablationSolve(heuristics.SGK, g)
			colors = c.MaxColor(g)
		}
		b.ReportMetric(float64(colors), "colors")
	})
	b.Run("full-permutations", func(b *testing.B) {
		var colors int64
		for i := 0; i < b.N; i++ {
			c := heuristics.SmartLargestCliqueFirst3DFull(g)
			colors = c.MaxColor(g)
		}
		b.ReportMetric(float64(colors), "colors")
	})
}
