package milp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/exact"
	"stencilivc/internal/grid"
)

func TestBuildDerivesHorizon(t *testing.T) {
	g := core.Chain([]int64{3, 4, 2})
	m, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Horizon < 7 {
		t.Errorf("horizon %d below the pair bound 7", m.Horizon)
	}
	if len(m.Pairs) != 2 {
		t.Errorf("pairs = %d, want 2", len(m.Pairs))
	}
}

func TestBuildRejectsTightHorizon(t *testing.T) {
	g := core.Chain([]int64{9})
	if _, err := Build(g, 5); err == nil {
		t.Error("horizon below max weight accepted")
	}
}

func TestZeroWeightVerticesExcludedFromPairs(t *testing.T) {
	g := grid.MustGrid2D(2, 2)
	g.Set(0, 0, 5) // diagonal positives; 0-weight cells in between
	g.Set(1, 1, 7)
	m, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1 (only the positive-positive edge)", len(m.Pairs))
	}
}

func TestWriteLPStructure(t *testing.T) {
	g := core.Chain([]int64{3, 4})
	m, err := Build(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Minimize", "obj: z", "Subject To",
		"end0: z - s0 >= 3",
		"d0a: s0 - s1 + 10 y0 <= 7",
		"d0b: s1 - s0 - 10 y0 <= -4",
		"Bounds", "0 <= s0 <= 7", "0 <= s1 <= 6",
		"General", "Binary", "y0", "End",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("LP output missing %q:\n%s", want, out)
		}
	}
}

// TestFormulationMatchesExact is the semantic cross-check: on random tiny
// instances, (a) every valid coloring within the horizon is model
// feasible and vice versa, and (b) the exact optimum is exactly the
// minimum model objective over brute-forced feasible colorings.
func TestFormulationMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		g := grid.MustGrid2D(1+rng.Intn(3), 1+rng.Intn(2))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(4))
		}
		m, err := Build(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exact.BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Feasible(res.Coloring) {
			t.Fatalf("exact optimal coloring infeasible in the model")
		}
		if m.Objective(res.Coloring) != res.MaxColor {
			t.Fatalf("objective mismatch")
		}
		// Enumerate model-feasible colorings by brute force and confirm
		// the minimum objective equals the exact optimum.
		best := bruteMin(m, g)
		if best != res.MaxColor {
			t.Fatalf("model minimum %d != exact optimum %d", best, res.MaxColor)
		}
	}
}

// bruteMin enumerates all start assignments within the horizon and
// returns the smallest feasible objective.
func bruteMin(m *Model, g *grid.Grid2D) int64 {
	n := g.Len()
	c := core.NewColoring(n)
	best := int64(1) << 62
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			if m.Feasible(c) {
				best = min(best, m.Objective(c))
			}
			return
		}
		if g.Weight(v) == 0 {
			c.Start[v] = 0
			rec(v + 1)
			return
		}
		for s := int64(0); s+g.Weight(v) <= m.Horizon; s++ {
			c.Start[v] = s
			rec(v + 1)
		}
		c.Start[v] = core.Unset
	}
	rec(0)
	return best
}

func TestFeasibleRejectsOverlap(t *testing.T) {
	g := core.Chain([]int64{3, 3})
	m, err := Build(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := core.Coloring{Start: []int64{0, 1}}
	if m.Feasible(c) {
		t.Error("overlapping coloring feasible")
	}
	c = core.Coloring{Start: []int64{0, 8}} // 8+3 > 10
	if m.Feasible(c) {
		t.Error("beyond-horizon coloring feasible")
	}
	if m.Feasible(core.Coloring{Start: []int64{0}}) {
		t.Error("short coloring feasible")
	}
}
