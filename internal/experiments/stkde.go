package experiments

import (
	"fmt"
	"time"

	"stencilivc/internal/datasets"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/perfprof"
	"stencilivc/internal/sched"
	"stencilivc/internal/stkde"
)

// STKDEConfig names one of the six application instances of Figure 10.
type STKDEConfig struct {
	Name    string
	Dataset datasets.Name
	// Voxels and Boxes are the output resolution and task partition.
	Voxels, Boxes [3]int
	// BWFrac is the bandwidth as a fraction of each axis extent.
	BWFrac float64
}

// Fig10Instances returns six instances spanning resolutions and
// bandwidths, mirroring the paper's choice of the six configurations
// whose sequential runtime exceeded one second.
func Fig10Instances() []STKDEConfig {
	return []STKDEConfig{
		{Name: "Dengue-highres-highbw", Dataset: datasets.Dengue, Voxels: [3]int{48, 48, 48}, Boxes: [3]int{8, 8, 8}, BWFrac: 1.0 / 16},
		{Name: "Dengue-midres-midbw", Dataset: datasets.Dengue, Voxels: [3]int{64, 64, 64}, Boxes: [3]int{16, 16, 8}, BWFrac: 1.0 / 32},
		{Name: "FluAnimal-highres-highbw-16-16-32", Dataset: datasets.FluAnimal, Voxels: [3]int{64, 64, 64}, Boxes: [3]int{16, 16, 32}, BWFrac: 1.0 / 64},
		{Name: "Pollen-midres-midbw", Dataset: datasets.Pollen, Voxels: [3]int{64, 64, 64}, Boxes: [3]int{16, 16, 16}, BWFrac: 1.0 / 32},
		{Name: "PollenUS-veryhighres-lowbw", Dataset: datasets.PollenUS, Voxels: [3]int{64, 64, 64}, Boxes: [3]int{32, 32, 16}, BWFrac: 1.0 / 64},
		{Name: "PollenUS-lowres-highbw", Dataset: datasets.PollenUS, Voxels: [3]int{48, 48, 48}, Boxes: [3]int{8, 8, 8}, BWFrac: 1.0 / 16},
	}
}

// STKDEMeasurement is one (instance, algorithm) point of Figure 10's
// scatter plots: the coloring's maxcolor against measured parallel
// runtime, plus the deterministic makespan simulated at Fig10Processors.
type STKDEMeasurement struct {
	Instance    string
	Algorithm   string
	Colors      int64
	MeanSeconds float64
	SimMakespan int64
}

// BuildSTKDE instantiates one configuration.
func BuildSTKDE(cfg STKDEConfig, seed int64) (*stkde.App, error) {
	ds, err := datasets.Generate(cfg.Dataset, seed)
	if err != nil {
		return nil, err
	}
	bwS := cfg.BWFrac * min(ds.Bounds.SpanX(), ds.Bounds.SpanY())
	bwT := cfg.BWFrac * ds.Bounds.SpanT()
	return stkde.New(ds.Points, ds.Bounds,
		cfg.Voxels[0], cfg.Voxels[1], cfg.Voxels[2],
		cfg.Boxes[0], cfg.Boxes[1], cfg.Boxes[2],
		bwS, bwT)
}

// Fig10Processors is the processor count Figure 10's makespan is
// simulated at: §VII ran the STKDE application on a 6-core Intel
// i5-11600K. Simulating at the paper's machine, not the host's, keeps
// the simulated column the same on every host.
const Fig10Processors = 6

// Fig10 measures every coloring algorithm on every configured instance:
// `runs` timed parallel executions on `workers` goroutines are averaged
// per point, like the paper's five-run averages on a 6-core machine.
// The simulated makespan is always taken at Fig10Processors; workers
// drives only the real pool.
func Fig10(cfgs []STKDEConfig, seed int64, workers, runs int) ([]STKDEMeasurement, error) {
	if workers < 1 || runs < 1 {
		return nil, fmt.Errorf("experiments: workers and runs must be positive")
	}
	var out []STKDEMeasurement
	for _, cfg := range cfgs {
		app, err := BuildSTKDE(cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
		}
		g := app.BoxGrid()
		for _, alg := range heuristics.All() {
			c, err := heuristics.Run(alg, g, nil)
			if err != nil {
				return nil, err
			}
			dag, err := sched.Build(g, c)
			if err != nil {
				return nil, err
			}
			sim, err := sched.Simulate(dag, Fig10Processors)
			if err != nil {
				return nil, err
			}
			var total float64
			for r := 0; r < runs; r++ {
				t0 := time.Now()
				if _, err := app.Parallel(c, workers); err != nil {
					return nil, err
				}
				total += time.Since(t0).Seconds()
			}
			out = append(out, STKDEMeasurement{
				Instance:    cfg.Name,
				Algorithm:   string(alg),
				Colors:      c.MaxColor(g),
				MeanSeconds: total / float64(runs),
				SimMakespan: sim.Makespan,
			})
		}
	}
	return out, nil
}

// Fig10Regression fits colors-vs-runtime per instance, returning
// (intercept, slope, correlation) — the regression lines drawn in
// Figure 10. useSim selects the deterministic simulated makespan instead
// of wall-clock seconds.
func Fig10Regression(ms []STKDEMeasurement, useSim bool) (map[string][3]float64, error) {
	byInst := map[string][][2]float64{}
	for _, m := range ms {
		y := m.MeanSeconds
		if useSim {
			y = float64(m.SimMakespan)
		}
		byInst[m.Instance] = append(byInst[m.Instance], [2]float64{float64(m.Colors), y})
	}
	out := map[string][3]float64{}
	for inst, pts := range byInst {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		a, b, r, err := perfprof.Linreg(xs, ys)
		if err != nil {
			// All algorithms produced identical color counts: correlation
			// is undefined; report a flat line rather than failing.
			out[inst] = [3]float64{ys[0], 0, 0}
			continue
		}
		out[inst] = [3]float64{a, b, r}
	}
	return out, nil
}
