package render

import (
	"strings"
	"testing"

	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/sched"
)

func TestWeights2D(t *testing.T) {
	g, err := grid.FromWeights2D(3, 2, []int64{0, 5, 10, 10, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	out := Weights2D(g)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Row j=1 renders first (top); 10 -> '@', 0 -> ' ', 5 -> middle glyph.
	if lines[0][0] != '@' || lines[0][1] != ' ' {
		t.Errorf("top row = %q", lines[0])
	}
	if lines[1][0] != ' ' || lines[1][2] != '@' {
		t.Errorf("bottom row = %q", lines[1])
	}
	// All-zero grid renders blanks without dividing by zero.
	empty := grid.MustGrid2D(2, 1)
	if out := Weights2D(empty); strings.TrimRight(out, " \n") != "" {
		t.Errorf("empty grid rendered %q", out)
	}
}

func TestIntervals2D(t *testing.T) {
	g, err := grid.FromWeights2D(2, 1, []int64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := heuristics.Run(heuristics.GLL, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Intervals2D(g, c)
	if !strings.Contains(out, "[0,3)") || !strings.Contains(out, "[3,7)") {
		t.Errorf("intervals missing: %q", out)
	}
}

func TestGantt(t *testing.T) {
	g, err := grid.FromWeights2D(4, 1, []int64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := heuristics.Run(heuristics.GLL, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sched.Build(g, c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Simulate(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Gantt(d, s, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "P0 ") || !strings.Contains(out, "P1 ") {
		t.Errorf("missing processor rows:\n%s", out)
	}
	if !strings.Contains(out, "makespan 10") {
		t.Errorf("missing makespan header:\n%s", out)
	}
	// Each processor runs 10 of 20 work units: both rows contain glyphs.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "P") && !strings.ContainsAny(line, "abcd") {
			t.Errorf("idle processor row: %q", line)
		}
	}
	if _, err := Gantt(d, s, 2, 3); err == nil {
		t.Error("tiny width accepted")
	}
	if _, err := Gantt(d, s, 0, 40); err == nil {
		t.Error("0 processors accepted")
	}
	// Worker ids beyond p are rejected.
	if _, err := Gantt(d, s, 1, 40); err == nil {
		t.Error("worker out of range accepted")
	}
}
