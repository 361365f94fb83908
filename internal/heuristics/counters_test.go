package heuristics

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// TestPlacementCountersAgree: with both sinks attached, every solve path
// reports the same work to the stats sink and to the metrics bundle —
// placements equal ivc_vertices_colored_total, and probes equal both
// ivc_probe_intervals_total and the occupancy-length histogram's sum —
// because one flush function writes all of them. Every vertex is
// placed at least once. The tile-parallel solvers also run at 1 and 4
// workers, each of which flushes its own counts.
func TestPlacementCountersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	instances := []grid.Stencil{random2D(rng, 24, 20, 9), random3D(rng, 8, 7, 6, 9)}
	type solve struct {
		alg Algorithm
		par int
	}
	var solves []solve
	for _, d := range Descriptors() {
		if !strings.HasPrefix(string(d.Name), "test-") { // chaos-test algorithms
			solves = append(solves, solve{d.Name, 1})
		}
	}
	solves = append(solves, solve{PGLL, 4}, solve{PGLF, 4})
	for _, s := range instances {
		for _, sv := range solves {
			if d, _ := Lookup(sv.alg); !d.Dims.Has(s.Dims()) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%dD/par%d", sv.alg, s.Dims(), sv.par), func(t *testing.T) {
				var st core.Stats
				sm := obsv.NewSolveMetrics(obsv.NewRegistry())
				opts := &core.SolveOptions{Stats: &st, Metrics: sm, Parallelism: sv.par}
				if _, err := Run(sv.alg, s, opts); err != nil {
					t.Fatal(err)
				}
				if st.Placements() != sm.Vertices.Value() {
					t.Errorf("Stats.Placements() = %d, ivc_vertices_colored_total = %d",
						st.Placements(), sm.Vertices.Value())
				}
				if st.Placements() < int64(s.Len()) {
					t.Errorf("placements = %d, want >= %d vertices", st.Placements(), s.Len())
				}
				if st.Probes() != sm.Probes.Value() || float64(st.Probes()) != sm.OccLen.Sum() {
					t.Errorf("Stats.Probes() = %d, ivc_probe_intervals_total = %d, occupancy sum = %g",
						st.Probes(), sm.Probes.Value(), sm.OccLen.Sum())
				}
			})
		}
	}
}

// TestSolveAllocsCounted: a metered solve raises ivc_solve_allocs_total
// by exactly the allocation count testing.AllocsPerRun reports for that
// solve. Both counts are process-wide, so a stray allocation on another
// goroutine can land in either; both are averaged over ten solves and
// rounded down, as AllocsPerRun does, so a few strays cannot tip them.
// The collector is paused so none of its work lands in between.
func TestSolveAllocsCounted(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(31))
	for _, s := range []grid.Stencil{random2D(rng, 32, 32, 9), random3D(rng, 8, 8, 8, 9)} {
		for _, alg := range []Algorithm{GLL, GKF, BDP} {
			sm := obsv.NewSolveMetrics(obsv.NewRegistry())
			opts := &core.SolveOptions{Metrics: sm}
			solve := func() {
				if _, err := Run(alg, s, opts); err != nil {
					t.Fatal(err)
				}
			}
			solve() // first-use caches, such as the grid's clique cover
			before := sm.Allocs.Value()
			const runs = 9
			per := testing.AllocsPerRun(runs, solve)
			// AllocsPerRun makes one more call before the runs it
			// averages; every call now allocates the same.
			if got := float64((sm.Allocs.Value() - before) / (runs + 1)); got != per {
				t.Errorf("%s %dD: ivc_solve_allocs_total rose by %v per solve, AllocsPerRun = %v",
					alg, s.Dims(), got, per)
			}
		}
	}
}
