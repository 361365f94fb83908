package stkde

import (
	"math"
	"math/rand"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/heuristics"
)

func testBounds() datasets.Bounds {
	return datasets.Bounds{MinX: 0, MaxX: 16, MinY: 0, MaxY: 16, MinT: 0, MaxT: 16}
}

func randomPoints(rng *rand.Rand, n int, b datasets.Bounds) []datasets.Point {
	pts := make([]datasets.Point, n)
	for i := range pts {
		pts[i] = datasets.Point{
			X: b.MinX + rng.Float64()*b.SpanX(),
			Y: b.MinY + rng.Float64()*b.SpanY(),
			T: b.MinT + rng.Float64()*b.SpanT(),
		}
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	b := testBounds()
	pts := randomPoints(rand.New(rand.NewSource(1)), 10, b)
	if _, err := New(pts, b, 32, 32, 32, 4, 4, 4, 1.0, 1.0); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		f    func() (*App, error)
	}{
		{"box too small", func() (*App, error) { return New(pts, b, 32, 32, 32, 16, 4, 4, 1.0, 1.0) }},
		{"zero bandwidth", func() (*App, error) { return New(pts, b, 32, 32, 32, 4, 4, 4, 0, 1) }},
		{"bad voxels", func() (*App, error) { return New(pts, b, 0, 32, 32, 4, 4, 4, 1, 1) }},
		{"bad boxes", func() (*App, error) { return New(pts, b, 32, 32, 32, 4, 0, 4, 1, 1) }},
		{"bad bounds", func() (*App, error) { return New(pts, datasets.Bounds{}, 8, 8, 8, 2, 2, 2, 1, 1) }},
	}
	for _, tc := range cases {
		if _, err := tc.f(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBoxGridWeightsArePointCounts(t *testing.T) {
	b := testBounds()
	pts := []datasets.Point{
		{X: 1, Y: 1, T: 1},    // box (0,0,0)
		{X: 1, Y: 1, T: 1.5},  // box (0,0,0)
		{X: 15, Y: 15, T: 15}, // box (3,3,3)
	}
	app, err := New(pts, b, 16, 16, 16, 4, 4, 4, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := app.BoxGrid()
	if g.At(0, 0, 0) != 2 {
		t.Errorf("box(0,0,0) weight = %d", g.At(0, 0, 0))
	}
	if g.At(3, 3, 3) != 1 {
		t.Errorf("box(3,3,3) weight = %d", g.At(3, 3, 3))
	}
	if core.TotalWeight(g) != 3 {
		t.Errorf("total weight = %d", core.TotalWeight(g))
	}
}

func TestSinglePointKernelShape(t *testing.T) {
	b := testBounds()
	pts := []datasets.Point{{X: 8, Y: 8, T: 8}}
	app, err := New(pts, b, 16, 16, 16, 4, 4, 4, 2.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	out := app.Sequential()
	// Voxel centers at 7.5 and 8.5 flank the point symmetrically.
	at := func(i, j, k int) float64 { return out[(k*16+j)*16+i] }
	if at(7, 7, 7) <= 0 {
		t.Error("no density next to the event")
	}
	if math.Abs(at(7, 7, 7)-at(8, 8, 8)) > 1e-12 {
		t.Errorf("kernel asymmetric: %v vs %v", at(7, 7, 7), at(8, 8, 8))
	}
	// Beyond the bandwidth in any dimension: exactly zero.
	if at(3, 7, 7) != 0 || at(7, 12, 7) != 0 || at(7, 7, 3) != 0 {
		t.Error("density leaked beyond the bandwidth")
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := testBounds()
	app, err := New(randomPoints(rng, 500, b), b, 24, 24, 24, 4, 4, 4, 1.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want := app.Sequential()
	g := app.BoxGrid()
	for _, alg := range heuristics.All() {
		c, err := heuristics.Run(alg, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := app.Parallel(c, workers)
			if err != nil {
				t.Fatalf("%s P=%d: %v", alg, workers, err)
			}
			for v := range want {
				// Summation order across boxes may differ; tolerance only.
				if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
					t.Fatalf("%s P=%d voxel %d: %v != %v", alg, workers, v, got[v], want[v])
				}
			}
		}
	}
}

func TestParallelRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := testBounds()
	app, err := New(randomPoints(rng, 50, b), b, 8, 8, 8, 2, 2, 2, 2.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	g := app.BoxGrid()
	c, err := heuristics.Run(heuristics.GLL, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Parallel(c, 0); err == nil {
		t.Error("0 workers accepted")
	}
	bad := core.NewColoring(g.Len()) // uncolored
	if _, err := app.Parallel(bad, 2); err == nil {
		t.Error("invalid coloring accepted")
	}
}

func TestTotalMassMatchesPointCount(t *testing.T) {
	// With a fine voxel grid, the discretized Epanechnikov product kernel
	// integrates to ~1 per event, so sum(density)*voxelVolume ~ N.
	rng := rand.New(rand.NewSource(4))
	b := testBounds()
	// Keep points away from the border so no kernel mass is clipped.
	inner := datasets.Bounds{MinX: 4, MaxX: 12, MinY: 4, MaxY: 12, MinT: 4, MaxT: 12}
	app, err := New(randomPoints(rng, 40, inner), b, 64, 64, 64, 4, 4, 4, 2.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	out := app.Sequential()
	var sum float64
	for _, v := range out {
		sum += v
	}
	voxVol := (b.SpanX() / 64) * (b.SpanY() / 64) * (b.SpanT() / 64)
	mass := sum * voxVol / (2.0 * 2.0 * 2.0) // kernel scale = bandwidth per dim
	if math.Abs(mass-40) > 40*0.05 {
		t.Errorf("total mass %v, want ~40", mass)
	}
}
