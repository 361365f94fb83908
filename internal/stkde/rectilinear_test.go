package stkde

import (
	"math"
	"math/rand"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/heuristics"
)

func TestNewRectilinearValidation(t *testing.T) {
	b := testBounds() // 16-unit cube
	pts := randomPoints(rand.New(rand.NewSource(20)), 50, b)
	// Valid: cuts at 6 and 11 with bandwidth 1 (min segment 5 >= 2).
	if _, err := NewRectilinear(pts, b, 16, 16, 16,
		[]float64{6, 11}, []float64{8}, nil, 1.0, 1.0); err != nil {
		t.Fatalf("valid rectilinear config rejected: %v", err)
	}
	cases := []struct {
		name       string
		cx, cy, ct []float64
		bwS, bwT   float64
	}{
		{"segment too narrow", []float64{1}, nil, nil, 1.0, 1.0},
		{"cut out of range", []float64{20}, nil, nil, 1.0, 1.0},
		{"cuts decreasing", []float64{10, 5}, nil, nil, 1.0, 1.0},
		{"zero bandwidth", []float64{8}, nil, nil, 0, 1.0},
	}
	for _, tc := range cases {
		if _, err := NewRectilinear(pts, b, 8, 8, 8, tc.cx, tc.cy, tc.ct, tc.bwS, tc.bwT); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestRectilinearBinning(t *testing.T) {
	b := testBounds()
	pts := []datasets.Point{
		{X: 1, Y: 1, T: 1}, // left of the x cut
		{X: 7, Y: 1, T: 1}, // right of the x cut at 6
		{X: 6, Y: 1, T: 1}, // exactly on the cut -> right box
	}
	app, err := NewRectilinear(pts, b, 8, 8, 8, []float64{6}, nil, nil, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := app.BoxGrid()
	if g.X() != 2 || g.Y() != 1 || g.Z() != 1 {
		t.Fatalf("box grid %dx%dx%d, want 2x1x1", g.X(), g.Y(), g.Z())
	}
	if g.At(0, 0, 0) != 1 {
		t.Errorf("left box weight = %d, want 1", g.At(0, 0, 0))
	}
	if g.At(1, 0, 0) != 2 {
		t.Errorf("right box weight = %d, want 2", g.At(1, 0, 0))
	}
}

func TestRectilinearParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := testBounds()
	app, err := NewRectilinear(randomPoints(rng, 300, b), b, 20, 20, 20,
		[]float64{5, 11}, []float64{7}, []float64{4, 9}, 1.2, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	want := app.Sequential()
	g := app.BoxGrid()
	c, err := heuristics.Run(heuristics.BDP, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := app.Parallel(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("voxel %d: %v != %v", v, got[v], want[v])
		}
	}
}

func TestNewBalancedImprovesBottleneck(t *testing.T) {
	// Heavily skewed points: everything in one corner. A balanced
	// partition must reduce the heaviest box weight vs the uniform one.
	rng := rand.New(rand.NewSource(22))
	b := testBounds()
	pts := make([]datasets.Point, 400)
	for i := range pts {
		pts[i] = datasets.Point{
			X: rng.Float64() * 4, Y: rng.Float64() * 4, T: rng.Float64() * 4,
		}
	}
	uniform, err := New(pts, b, 16, 16, 16, 4, 4, 4, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := NewBalanced(pts, b, 16, 16, 16, 4, 4, 4, 1.0, 1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ub := core.MaxWeight(uniform.BoxGrid())
	bb := core.MaxWeight(balanced.BoxGrid())
	if bb >= ub {
		t.Fatalf("balanced bottleneck %d not below uniform %d", bb, ub)
	}
	// The coloring bound follows the bottleneck down.
	if total := core.TotalWeight(balanced.BoxGrid()); total != int64(len(pts)) {
		t.Fatalf("balanced binning lost points: %d of %d", total, len(pts))
	}
}

func TestNewBalancedRespectsBandwidthConstraint(t *testing.T) {
	b := testBounds()
	pts := randomPoints(rand.New(rand.NewSource(23)), 50, b)
	// 16-unit axis, bandwidth 2 -> at most 4 boxes of span >= 4.
	if _, err := NewBalanced(pts, b, 8, 8, 8, 5, 2, 2, 2.0, 2.0, 5); err == nil {
		t.Error("over-partitioned balanced config accepted")
	}
	app, err := NewBalanced(pts, b, 8, 8, 8, 4, 2, 2, 2.0, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if app.BX != 4 || app.BY != 2 || app.BT != 2 {
		t.Fatalf("box dims %dx%dx%d", app.BX, app.BY, app.BT)
	}
}

func TestParallelWavesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	b := testBounds()
	app, err := New(randomPoints(rng, 300, b), b, 20, 20, 20, 4, 4, 4, 1.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want := app.Sequential()
	got, err := app.ParallelWaves(4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("voxel %d: %v != %v", v, got[v], want[v])
		}
	}
	if _, err := app.ParallelWaves(0); err == nil {
		t.Error("0 workers accepted")
	}
}
