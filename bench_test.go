// Benchmarks regenerating the paper's tables and figures: one
// testing.B benchmark per experiment (see DESIGN.md's index), plus
// micro-benchmarks of the core machinery. Run with:
//
//	go test -bench=. -benchmem
package stencilivc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/exact"
	"stencilivc/internal/experiments"
	"stencilivc/internal/nae"
	"stencilivc/internal/perfprof"
	"stencilivc/internal/sched"
)

// benchData caches the synthetic suites so benchmark iterations measure
// algorithms, not dataset generation.
var benchData struct {
	once   sync.Once
	g2     *Grid2D // representative 2D instance (Dengue xy, largest quick grid)
	g3     *Grid3D // representative 3D instance
	suite2 []datasets.Instance2D
	suite3 []datasets.Instance3D
}

func loadBenchData(b *testing.B) {
	b.Helper()
	benchData.once.Do(func() {
		s2, err := datasets.Suite2D(datasets.SuiteOptions{Seed: 1, Stride: 2, MaxDim: 32})
		if err != nil {
			panic(err)
		}
		s3, err := datasets.Suite3D(datasets.SuiteOptions{Seed: 1, Stride: 2, MaxDim: 16})
		if err != nil {
			panic(err)
		}
		benchData.suite2, benchData.suite3 = s2, s3
		// Pick the largest Dengue xy instance as the representative.
		for _, in := range s2 {
			if in.Dataset == datasets.Dengue && in.Projection == datasets.XY {
				g, err := FromWeights2D(in.X, in.Y, in.Weights)
				if err != nil {
					panic(err)
				}
				if benchData.g2 == nil || g.Len() > benchData.g2.Len() {
					benchData.g2 = g
				}
			}
		}
		for _, in := range s3 {
			if in.Dataset == datasets.Dengue {
				g, err := FromWeights3D(in.X, in.Y, in.Z, in.Weights)
				if err != nil {
					panic(err)
				}
				if benchData.g3 == nil || g.Len() > benchData.g3.Len() {
					benchData.g3 = g
				}
			}
		}
	})
	if benchData.g2 == nil || benchData.g3 == nil {
		b.Fatal("bench data missing representative instances")
	}
}

// BenchmarkFig2OddCycle times the exact solve certifying the Figure 2
// phenomenon (odd-cycle bound 30 > clique bound 20).
func BenchmarkFig2OddCycle(b *testing.B) {
	g := MustGrid2D(4, 5)
	for _, c := range c7Cells {
		g.Set(c[0], c[1], 10)
	}
	lb := bounds.OddCycle(g, g.Len(), 5_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := exact.Optimize(g, exact.OptimizeOptions{LowerBound: lb, NodeBudget: 2_000_000})
		if !res.Optimal || res.MaxColor != 30 {
			b.Fatal("figure 2 result changed")
		}
	}
}

// BenchmarkFig3Gap times the exact solve certifying the Figure 3 gap
// instance (optimum 17 above both bounds of 16).
func BenchmarkFig3Gap(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := exact.Optimize(g, exact.OptimizeOptions{LowerBound: 16, NodeBudget: 5_000_000})
		if !res.Optimal || res.MaxColor != 17 {
			b.Fatal("figure 3 result changed")
		}
	}
}

// BenchmarkFig4Voxelize times dataset voxelization (the preprocessing
// behind Figure 4's projections).
func BenchmarkFig4Voxelize(b *testing.B) {
	ds, err := datasets.Generate(datasets.Dengue, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datasets.Voxelize2D(ds.Points, ds.Bounds, datasets.XY, 32, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5a2DRuntime is the per-algorithm runtime comparison of
// Figure 5a on a representative 2D instance.
func BenchmarkFig5a2DRuntime(b *testing.B) {
	loadBenchData(b)
	g := benchData.g2
	b.Logf("instance: %dx%d", g.X(), g.Y())
	for _, alg := range Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			var colors int64
			for i := 0; i < b.N; i++ {
				c, err := Solve2D(alg, g)
				if err != nil {
					b.Fatal(err)
				}
				colors = c.MaxColor(g)
			}
			b.ReportMetric(float64(colors), "colors")
		})
	}
}

// BenchmarkFig5b2DQuality sweeps all algorithms over the 2D suite and
// reports the geometric-mean tau of the best-known profile (Figure 5b).
func BenchmarkFig5b2DQuality(b *testing.B) {
	loadBenchData(b)
	for i := 0; i < b.N; i++ {
		var records []perfprof.Record
		for _, in := range benchData.suite2 {
			g, err := FromWeights2D(in.X, in.Y, in.Weights)
			if err != nil {
				b.Fatal(err)
			}
			for _, alg := range Algorithms() {
				c, err := Solve2D(alg, g)
				if err != nil {
					b.Fatal(err)
				}
				records = append(records, perfprof.Record{
					Algorithm: string(alg), Instance: in.Label(), Value: c.MaxColor(g),
				})
			}
		}
		sums, err := perfprof.Summarize(records)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sums {
			if s.Algorithm == "BDP" {
				b.ReportMetric(s.GeoMeanTau, "BDP-geo-tau")
			}
		}
	}
}

// BenchmarkFig6PerDataset times the per-dataset 2D profile splits.
func BenchmarkFig6PerDataset(b *testing.B) {
	loadBenchData(b)
	for _, name := range datasets.Names() {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var records []perfprof.Record
				for _, in := range benchData.suite2 {
					if in.Dataset != name {
						continue
					}
					g, err := FromWeights2D(in.X, in.Y, in.Weights)
					if err != nil {
						b.Fatal(err)
					}
					for _, alg := range Algorithms() {
						c, err := Solve2D(alg, g)
						if err != nil {
							b.Fatal(err)
						}
						records = append(records, perfprof.Record{
							Algorithm: string(alg), Instance: in.Label(), Value: c.MaxColor(g),
						})
					}
				}
				if _, err := perfprof.Compute(records); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7a3DRuntime is Figure 7a: per-algorithm runtimes on a
// representative 3D instance.
func BenchmarkFig7a3DRuntime(b *testing.B) {
	loadBenchData(b)
	g := benchData.g3
	b.Logf("instance: %dx%dx%d", g.X(), g.Y(), g.Z())
	for _, alg := range Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			var colors int64
			for i := 0; i < b.N; i++ {
				c, err := Solve3D(alg, g)
				if err != nil {
					b.Fatal(err)
				}
				colors = c.MaxColor(g)
			}
			b.ReportMetric(float64(colors), "colors")
		})
	}
}

// BenchmarkFig7b3DQuality sweeps the 3D suite (Figure 7b).
func BenchmarkFig7b3DQuality(b *testing.B) {
	loadBenchData(b)
	for i := 0; i < b.N; i++ {
		var records []perfprof.Record
		for _, in := range benchData.suite3 {
			g, err := FromWeights3D(in.X, in.Y, in.Z, in.Weights)
			if err != nil {
				b.Fatal(err)
			}
			for _, alg := range Algorithms() {
				c, err := Solve3D(alg, g)
				if err != nil {
					b.Fatal(err)
				}
				records = append(records, perfprof.Record{
					Algorithm: string(alg), Instance: in.Label(), Value: c.MaxColor(g),
				})
			}
		}
		if _, err := perfprof.Compute(records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8PerDataset times the per-dataset 3D splits.
func BenchmarkFig8PerDataset(b *testing.B) {
	loadBenchData(b)
	for _, name := range datasets.Names() {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, in := range benchData.suite3 {
					if in.Dataset != name {
						continue
					}
					g, err := FromWeights3D(in.X, in.Y, in.Z, in.Weights)
					if err != nil {
						b.Fatal(err)
					}
					for _, alg := range Algorithms() {
						if _, err := Solve3D(alg, g); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkFig9Optimality times the optimality-certification pass (the
// MILP substitute behind Figures 9a/9b and Table 3).
func BenchmarkFig9Optimality(b *testing.B) {
	opts := experiments.Options{Seed: 1, Stride: 4, MaxDim: 8,
		ExactBudget: 50_000, MaxExactCells: 500_000}
	res, err := experiments.Run2DSuite(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := res.ProvenOptimal(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rep.Optimum)), "certified")
	}
}

// BenchmarkFig10STKDE times one parallel STKDE execution per algorithm on
// a small instance (Figure 10's measured quantity).
func BenchmarkFig10STKDE(b *testing.B) {
	cfg := experiments.STKDEConfig{
		Name: "bench", Dataset: datasets.Dengue,
		Voxels: [3]int{32, 32, 32}, Boxes: [3]int{8, 8, 8}, BWFrac: 1.0 / 16,
	}
	app, err := experiments.BuildSTKDE(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := app.BoxGrid()
	workers := runtime.NumCPU()
	for _, alg := range Algorithms() {
		c, err := Solve3D(alg, g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := app.Parallel(c, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.MaxColor(g)), "colors")
		})
	}
}

// BenchmarkNAEReduction times building and deciding a Section IV
// reduction instance.
func BenchmarkNAEReduction(b *testing.B) {
	inst := nae.Instance{NumVars: 4, Clauses: [][3]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}}}
	for i := 0; i < b.N; i++ {
		l, err := nae.Build(inst)
		if err != nil {
			b.Fatal(err)
		}
		verdict, _ := exact.Decide(l.Grid, nae.K, exact.DecideOptions{NodeBudget: 5_000_000})
		if verdict != exact.Feasible {
			b.Fatal("reduction verdict changed")
		}
	}
}

// BenchmarkTable1 times computing the Section VI-B statistics from a
// cached record matrix.
func BenchmarkTable1(b *testing.B) {
	res, err := experiments.Run2DSuite(experiments.Options{Seed: 1, Stride: 4, MaxDim: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MakeTable1(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 times the Section VI-C statistics.
func BenchmarkTable2(b *testing.B) {
	res, err := experiments.Run3DSuite(experiments.Options{Seed: 1, Stride: 4, MaxDim: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MakeTable2(res); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the core machinery ---

func BenchmarkLowestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	occ := make([]core.Interval, 26)
	for i := range occ {
		s := rng.Int63n(200)
		occ[i] = core.NewInterval(s, rng.Int63n(10))
	}
	scratch := make([]core.Interval, len(occ))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, occ)
		core.LowestFit(scratch, 7)
	}
}

func BenchmarkGreedyColor(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("grid%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := MustGrid2D(n, n)
			for v := range g.Len() {
				i, j := g.Coords(v)
				g.Set(i, j, rng.Int63n(100))
			}
			order := make([]int, g.Len())
			for i := range order {
				order[i] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.GreedyColor(g, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecide(b *testing.B) {
	g := MustGrid2D(4, 4)
	rng := rand.New(rand.NewSource(3))
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(6))
	}
	lb := bounds.MaxK4(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.Decide(g, lb+2, exact.DecideOptions{NodeBudget: 200_000})
	}
}

func BenchmarkSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := MustGrid2D(32, 32)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(50))
	}
	c, err := Solve2D(BDP, g)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sched.Build(g, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Simulate(d, 8); err != nil {
			b.Fatal(err)
		}
	}
}
