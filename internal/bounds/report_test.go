package bounds

import (
	"strings"
	"testing"

	"stencilivc/internal/grid"
)

func TestReport2D(t *testing.T) {
	g, err := grid.FromWeights2D(3, 3, []int64{2, 1, 3, 0, 4, 1, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := Report2D(g, 100_000)
	if r.Pair != MaxPair(g) || r.Clique != MaxK4(g) {
		t.Fatal("report components disagree with direct calls")
	}
	if r.Best() < r.Pair || r.Best() < r.Clique || r.Best() < r.OddCycle {
		t.Fatal("Best below a component")
	}
	if r.Binding() == "" {
		t.Fatal("no binding structure")
	}
	if !strings.Contains(r.String(), "lower bounds:") {
		t.Errorf("String malformed: %q", r.String())
	}
}

func TestReportBindingPreference(t *testing.T) {
	// All equal: the cheaper certificate wins the name.
	r := Report{Pair: 5, Clique: 5, OddCycle: 5}
	if r.Binding() != "pair" {
		t.Errorf("Binding = %q, want pair", r.Binding())
	}
	r = Report{Pair: 3, Clique: 5, OddCycle: 5}
	if r.Binding() != "clique" {
		t.Errorf("Binding = %q, want clique", r.Binding())
	}
	r = Report{Pair: 3, Clique: 4, OddCycle: 5}
	if r.Binding() != "odd-cycle" {
		t.Errorf("Binding = %q, want odd-cycle", r.Binding())
	}
}

func TestReport3D(t *testing.T) {
	g := grid.MustGrid3D(2, 2, 2)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, 2)
	}
	r := Report3D(g, 10_000)
	if r.Clique != 16 {
		t.Fatalf("K8 bound = %d, want 16", r.Clique)
	}
	if r.Best() != 16 || r.Binding() != "clique" {
		t.Fatalf("Best=%d Binding=%s", r.Best(), r.Binding())
	}
	// Budget 0 disables the cycle search.
	r0 := Report3D(g, 0)
	if r0.OddCycle != 0 {
		t.Fatal("cycle search ran with zero budget")
	}
}
