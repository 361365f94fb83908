package stencilivc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestIteratedGreedyOnFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := MustGrid2D(6, 6)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(20))
	}
	c, err := Solve2D(BD, g)
	if err != nil {
		t.Fatal(err)
	}
	before := c.MaxColor(g)
	IteratedGreedy(g, c, 5)
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c.MaxColor(g) > before {
		t.Fatal("IteratedGreedy worsened the coloring")
	}
}

func TestOrderStrategiesOnFacade(t *testing.T) {
	g := MustGrid2D(4, 4)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%7))
	}
	for name, ord := range map[string][]int{
		"smallest-last": SmallestLastOrder(g),
		"degree":        DegreeOrder(g),
	} {
		c, err := GreedyWithOrder(g, ord)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := GreedyWithOrder(g, []int{0}); err == nil {
		t.Error("bad order accepted")
	}
}

func TestWriteMILPOnFacade(t *testing.T) {
	g, err := FromWeights2D(2, 2, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMILP(&buf, g, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Minimize") || !strings.Contains(out, "Binary") {
		t.Errorf("LP output malformed:\n%s", out)
	}
	if err := WriteMILP(&buf, g, 2); err == nil {
		t.Error("horizon below max weight accepted")
	}
}

func TestPartitionersOnFacade(t *testing.T) {
	cuts, b, err := PartitionLoads1D([]int64{4, 1, 1, 4}, 2)
	if err != nil || b != 5 || len(cuts) != 1 {
		t.Fatalf("PartitionLoads1D = %v, %d, %v", cuts, b, err)
	}
	g2 := MustGrid2D(6, 6)
	g2.Set(0, 0, 100)
	if _, _, _, err := PartitionGrid2D(g2, 2, 2, 5); err != nil {
		t.Fatal(err)
	}
	g3 := MustGrid3D(4, 4, 4)
	g3.Set(0, 0, 0, 100)
	if _, _, _, _, err := PartitionGrid3D(g3, 2, 2, 2, 5); err != nil {
		t.Fatal(err)
	}
}

func TestWavesOnFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := MustGrid2D(5, 5)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(9))
	}
	classes := ColorClasses(g)
	waves, err := SimulateWaves(g, classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Solve2D(BDP, g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TaskDAG(g, c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if waves <= 0 || s.Makespan <= 0 {
		t.Fatal("degenerate makespans")
	}
}

func TestCSVOnFacade(t *testing.T) {
	pts := []Point{{X: 1, Y: 2, T: 3}}
	var buf bytes.Buffer
	if err := WritePointsCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPointsCSV(&buf)
	if err != nil || len(back) != 1 || back[0] != pts[0] {
		t.Fatalf("round trip failed: %v %v", back, err)
	}
}

func TestNewBalancedSTKDEOnFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	bounds := Bounds{MinX: 0, MaxX: 16, MinY: 0, MaxY: 16, MinT: 0, MaxT: 16}
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 6, Y: rng.Float64() * 6, T: rng.Float64() * 16}
	}
	app, err := NewBalancedSTKDE(pts, bounds, 16, 16, 16, 4, 4, 4, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := app.BoxGrid()
	c, err := Solve3D(BDP, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Parallel(c, 2); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsReportOnFacade(t *testing.T) {
	g := MustGrid2D(3, 3)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, 2)
	}
	rep := BoundsReport2D(g, 10000)
	if rep.Best() != 8 || rep.Binding() != "clique" {
		t.Fatalf("report = %+v", rep)
	}
	g3 := MustGrid3D(2, 2, 2)
	for v := range g3.Len() {
		i, j, k := g3.Coords(v)
		g3.Set(i, j, k, 1)
	}
	if rep := BoundsReport3D(g3, 0); rep.Best() != 8 {
		t.Fatalf("3D report = %+v", rep)
	}
}
