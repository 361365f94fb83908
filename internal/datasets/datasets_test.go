package datasets

import (
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

func TestBoundsOf(t *testing.T) {
	pts := []Point{{1, 2, 3}, {-1, 5, 0}, {4, 2, 7}}
	b, err := BoundsOf(pts)
	if err != nil {
		t.Fatal(err)
	}
	want := Bounds{MinX: -1, MaxX: 4, MinY: 2, MaxY: 5, MinT: 0, MaxT: 7}
	if b != want {
		t.Errorf("BoundsOf = %+v, want %+v", b, want)
	}
	if _, err := BoundsOf(nil); err == nil {
		t.Error("empty point set accepted")
	}
}

func TestClip(t *testing.T) {
	pts := []Point{{0, 0, 0}, {5, 5, 5}, {10, 10, 10}}
	box := Bounds{MinX: 1, MaxX: 9, MinY: 1, MaxY: 9, MinT: 1, MaxT: 9}
	if got := Clip(pts, box); len(got) != 1 || got[0] != (Point{5, 5, 5}) {
		t.Errorf("Clip = %v", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, err := Generate(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Points) != len(b.Points) {
			t.Fatalf("%s: nondeterministic point count", name)
		}
		for i := range a.Points {
			if a.Points[i] != b.Points[i] {
				t.Fatalf("%s: point %d differs between identical seeds", name, i)
			}
		}
		if len(a.Points) == 0 {
			t.Fatalf("%s: no points", name)
		}
		if !a.Bounds.Valid() {
			t.Fatalf("%s: invalid bounds", name)
		}
		for _, p := range a.Points {
			if !a.Bounds.Contains(p) {
				t.Fatalf("%s: point %v outside declared bounds", name, p)
			}
		}
		if len(a.Bandwidths) == 0 {
			t.Fatalf("%s: no bandwidths", name)
		}
		for _, bw := range a.Bandwidths {
			if bw <= 0 || bw >= 0.5 {
				t.Fatalf("%s: bandwidth fraction %v out of (0, 0.5)", name, bw)
			}
		}
	}
	if _, err := Generate("Bogus", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDatasetCharacters(t *testing.T) {
	// The qualitative contrast the paper leans on: FluAnimal is sparse
	// (most voxels empty at moderate resolution), Dengue is concentrated.
	flu, err := Generate(FluAnimal, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Voxelize2D(flu.Points, flu.Bounds, XY, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for v := range g.Len() {
		if g.Weight(v) == 0 {
			empty++
		}
	}
	if empty < g.Len()/4 {
		t.Errorf("FluAnimal not sparse: only %d/%d empty cells", empty, g.Len())
	}

	den, err := Generate(Dengue, 1)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := Voxelize2D(den.Points, den.Bounds, XY, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mw := core.MaxWeight(gd); mw < core.TotalWeight(gd)/32 {
		t.Errorf("Dengue not concentrated: max cell %d of total %d", mw, core.TotalWeight(gd))
	}
}

func TestVoxelize2DConservesPoints(t *testing.T) {
	ds, err := Generate(Pollen, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, proj := range Projections() {
		g, err := Voxelize2D(ds.Points, ds.Bounds, proj, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.TotalWeight(g); got != int64(len(ds.Points)) {
			t.Errorf("%s: voxelized %d of %d points", proj, got, len(ds.Points))
		}
	}
	if _, err := Voxelize2D(ds.Points, ds.Bounds, "ab", 4, 4); err == nil {
		t.Error("unknown projection accepted")
	}
	if _, err := Voxelize2D(ds.Points, Bounds{}, XY, 4, 4); err == nil {
		t.Error("degenerate bounds accepted")
	}
}

func TestVoxelize3DConservesPoints(t *testing.T) {
	ds, err := Generate(Dengue, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Voxelize3D(ds.Points, ds.Bounds, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.TotalWeight(g); got != int64(len(ds.Points)) {
		t.Errorf("voxelized %d of %d points", got, len(ds.Points))
	}
}

func TestBinIndexEdges(t *testing.T) {
	if i := binIndex(1.0, 0, 1, 8); i != 7 {
		t.Errorf("upper edge bin = %d, want 7", i)
	}
	if i := binIndex(0.0, 0, 1, 8); i != 0 {
		t.Errorf("lower edge bin = %d, want 0", i)
	}
	if i := binIndex(-0.01, 0, 1, 8); i != -1 {
		t.Errorf("below-range bin = %d, want -1", i)
	}
	if i := binIndex(1.01, 0, 1, 8); i != -1 {
		t.Errorf("above-range bin = %d, want -1", i)
	}
	if i := binIndex(0.5, 0, 0, 8); i != -1 {
		t.Errorf("zero-span bin = %d, want -1", i)
	}
}

func TestAxisSizes(t *testing.T) {
	// f = 1/32 caps the axis at 16 regions: powers 2,4,8,16.
	got := axisSizes(1.0/32, 0)
	want := []int{2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("axisSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("axisSizes = %v, want %v", got, want)
		}
	}
	// Non-power cap is appended: 1/(2*0.024) ~ 20.8 -> cap 20.
	got = axisSizes(0.024, 0)
	if got[len(got)-1] != 20 {
		t.Errorf("cap not appended: %v", got)
	}
	// Huge bandwidth leaves no valid sizes.
	if got := axisSizes(0.4, 0); got != nil {
		t.Errorf("axisSizes(0.4) = %v, want nil", got)
	}
	// MaxDim caps.
	got = axisSizes(1.0/64, 5)
	if got[len(got)-1] != 5 {
		t.Errorf("MaxDim not honored: %v", got)
	}
}

func TestSuite2DShape(t *testing.T) {
	suite, err := Suite2D(SuiteOptions{Seed: 1, Stride: 4, MaxDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) == 0 {
		t.Fatal("empty 2D suite")
	}
	seen := map[Name]bool{}
	for _, in := range suite {
		seen[in.Dataset] = true
		if in.X < 2 || in.Y < 2 {
			t.Fatalf("instance %s has degenerate dims", in.Label())
		}
		if len(in.Weights) != in.X*in.Y {
			t.Fatalf("instance %s weight length mismatch", in.Label())
		}
		if _, err := grid.FromWeights2D(in.X, in.Y, in.Weights); err != nil {
			t.Fatalf("instance %s not grid-convertible: %v", in.Label(), err)
		}
	}
	for _, name := range Names() {
		if !seen[name] {
			t.Errorf("dataset %s missing from suite", name)
		}
	}
}

func TestSuite3DShape(t *testing.T) {
	suite, err := Suite3D(SuiteOptions{Seed: 1, Stride: 4, MaxDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) == 0 {
		t.Fatal("empty 3D suite")
	}
	for _, in := range suite {
		if in.X < 2 || in.Y < 2 || in.Z < 2 {
			t.Fatalf("instance %s has degenerate dims", in.Label())
		}
		if _, err := grid.FromWeights3D(in.X, in.Y, in.Z, in.Weights); err != nil {
			t.Fatalf("instance %s not grid-convertible: %v", in.Label(), err)
		}
	}
}

func TestSuiteSizesMatchPaperScale(t *testing.T) {
	// The paper evaluates 852 2D and 1587 3D instances; the full synthetic
	// suites should land in the same order of magnitude.
	s2, err := Suite2D(SuiteOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Suite3D(SuiteOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) < 200 || len(s2) > 3000 {
		t.Errorf("2D suite size %d far from paper scale (852)", len(s2))
	}
	if len(s3) < 300 || len(s3) > 5000 {
		t.Errorf("3D suite size %d far from paper scale (1587)", len(s3))
	}
	t.Logf("suite sizes: %d 2D instances (paper: 852), %d 3D instances (paper: 1587)", len(s2), len(s3))
}
