package sched

import (
	"math/rand"
	"testing"

	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
)

func TestColorClassesAreConflictFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := grid.MustGrid2D(6, 5)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(5))
	}
	classes := ColorClasses(g)
	var buf []int
	seen := map[int]bool{}
	positives := 0
	for _, class := range classes {
		inClass := map[int]bool{}
		for _, v := range class {
			if g.Weight(v) == 0 {
				t.Fatalf("zero-weight vertex %d in a class", v)
			}
			if seen[v] {
				t.Fatalf("vertex %d in two classes", v)
			}
			seen[v] = true
			inClass[v] = true
		}
		for _, v := range class {
			buf = g.Neighbors(v, buf[:0])
			for _, u := range buf {
				if inClass[u] {
					t.Fatalf("conflicting vertices %d and %d share a class", v, u)
				}
			}
		}
	}
	for v := 0; v < g.Len(); v++ {
		if g.Weight(v) > 0 {
			positives++
			if !seen[v] {
				t.Fatalf("positive vertex %d unclassed", v)
			}
		}
	}
	// A 9-pt stencil greedy distance-1 coloring needs at most Delta+1 = 9
	// classes.
	if len(classes) > 9 {
		t.Fatalf("classes = %d > 9 on a 9-pt stencil", len(classes))
	}
	_ = positives
}

// TestWavesRarelyBeatDAG quantifies the Section VII design choice: a
// barrier-synchronized classic-coloring execution is, in aggregate, no
// faster than the interval-coloring DAG execution under the same
// simulator. Individual instances may differ by a whisker (list
// scheduling is only an approximation), so the assertion is on totals.
func TestWavesRarelyBeatDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var totalDAG, totalWaves int64
	for trial := 0; trial < 15; trial++ {
		g := grid.MustGrid2D(3+rng.Intn(8), 3+rng.Intn(8))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(12))
		}
		c, err := heuristics.Run(heuristics.BDP, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Build(g, c)
		if err != nil {
			t.Fatal(err)
		}
		classes := ColorClasses(g)
		for _, p := range []int{1, 4} {
			dag, err := Simulate(d, p)
			if err != nil {
				t.Fatal(err)
			}
			waves, err := SimulateWaves(g, classes, p)
			if err != nil {
				t.Fatal(err)
			}
			// Both schedules execute all work; with one processor each is
			// exactly the total work.
			if p == 1 {
				if waves != d.TotalWork() || dag.Makespan != d.TotalWork() {
					t.Fatalf("P=1 mismatch: waves=%d dag=%d work=%d",
						waves, dag.Makespan, d.TotalWork())
				}
				continue
			}
			totalDAG += dag.Makespan
			totalWaves += waves
			// No schedule can beat the work bound.
			if int64(p)*waves < d.TotalWork() {
				t.Fatalf("P=%d waves %d under-account work %d", p, waves, d.TotalWork())
			}
		}
	}
	if totalDAG > totalWaves {
		t.Errorf("DAG execution slower in aggregate: %d > %d", totalDAG, totalWaves)
	}
}

func TestSimulateWavesErrors(t *testing.T) {
	g := grid.MustGrid2D(2, 2)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, 1)
	}
	if _, err := SimulateWaves(g, [][]int{{0}}, 0); err == nil {
		t.Error("0 processors accepted")
	}
	if _, err := SimulateWaves(g, [][]int{{0}, {0}}, 2); err == nil {
		t.Error("duplicated vertex accepted")
	}
	if _, err := SimulateWaves(g, [][]int{{99}}, 2); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestSimulateWavesManyProcessors(t *testing.T) {
	// With unlimited processors, each wave costs its heaviest task; the
	// total is the sum of per-class maxima.
	g, err := grid.FromWeights2D(2, 2, []int64{5, 3, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	classes := ColorClasses(g) // K4: four singleton classes
	if len(classes) != 4 {
		t.Fatalf("classes = %d, want 4 on K4", len(classes))
	}
	ms, err := SimulateWaves(g, classes, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 17 {
		t.Fatalf("makespan = %d, want 17", ms)
	}
}
