package heuristics

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// TestAllIsPaperSet pins All() to the paper's seven algorithms in the
// paper's presentation order, derived from the registry rather than a
// hard-coded list.
func TestAllIsPaperSet(t *testing.T) {
	want := []Algorithm{GLL, GZO, GLF, GKF, SGK, BD, BDP}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All()[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestBDLExcludedFromPaperSet: BDL is registered (dispatchable by name)
// but stays out of All() and is 3D-only.
func TestBDLExcludedFromPaperSet(t *testing.T) {
	for _, alg := range All() {
		if alg == BDL {
			t.Fatal("BDL must not be part of All()")
		}
	}
	d, ok := Lookup(BDL)
	if !ok {
		t.Fatal("BDL is not registered")
	}
	if d.Paper {
		t.Error("BDL descriptor must have Paper=false")
	}
	if d.Dims != Dim3D {
		t.Errorf("BDL dims = %s, want 3D", d.Dims)
	}
	// The full registry is the paper set plus the extensions (BDL and the
	// tile-parallel solvers PGLL/PGLF). Chaos-test algorithms ("test-"
	// prefix, registered lazily by the degradation tests) are excluded
	// from the count so test execution order doesn't matter.
	extensions := map[Algorithm]bool{BDL: true, PGLL: true, PGLF: true}
	n := 0
	for _, d := range Descriptors() {
		if strings.HasPrefix(string(d.Name), "test-") {
			continue
		}
		n++
		if d.Paper {
			continue
		}
		if !extensions[d.Name] {
			t.Errorf("unexpected non-paper algorithm %s in registry", d.Name)
		}
	}
	if n != len(All())+len(extensions) {
		t.Errorf("registry holds %d descriptors, want %d", n, len(All())+len(extensions))
	}
}

// TestParallelGreedyRegistered: the tile-parallel solvers dispatch
// through the registry on both dimensionalities, stay out of All(), and
// return valid colorings.
func TestParallelGreedyRegistered(t *testing.T) {
	for _, alg := range All() {
		if alg == PGLL || alg == PGLF {
			t.Fatalf("%s must not be part of All()", alg)
		}
	}
	g2 := grid.MustGrid2D(9, 7)
	g3 := grid.MustGrid3D(5, 4, 3)
	for v := range g2.W {
		g2.W[v] = int64(v%5 + 1)
	}
	for v := range g3.W {
		g3.W[v] = int64(v%4 + 1)
	}
	for _, alg := range []Algorithm{PGLL, PGLF} {
		d, ok := Lookup(alg)
		if !ok {
			t.Fatalf("%s is not registered", alg)
		}
		if d.Paper {
			t.Errorf("%s descriptor must have Paper=false", alg)
		}
		if d.Dims != DimBoth {
			t.Errorf("%s dims = %s, want 2D/3D", alg, d.Dims)
		}
		opts := &core.SolveOptions{Parallelism: 3}
		for _, s := range []grid.Stencil{g2, g3} {
			c, err := Run(alg, s, opts)
			if err != nil {
				t.Fatalf("Run(%s, %dD): %v", alg, s.Dims(), err)
			}
			if err := c.Validate(s); err != nil {
				t.Errorf("Run(%s, %dD): %v", alg, s.Dims(), err)
			}
		}
	}
}

// TestUnknownAlgorithmDispatch covers the error path of the registry in
// both dimensions.
func TestUnknownAlgorithmDispatch(t *testing.T) {
	g2 := grid.MustGrid2D(3, 3)
	g3 := grid.MustGrid3D(2, 2, 2)
	if _, err := Run2D("NOPE", g2); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("Run2D with unknown algorithm: err = %v, want unknown-algorithm error", err)
	}
	if _, err := Run3D("NOPE", g3); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("Run3D with unknown algorithm: err = %v, want unknown-algorithm error", err)
	}
	if _, err := Run("", g2, nil); err == nil {
		t.Error("Run with empty algorithm name must error")
	}
}

// TestDimensionMismatch: a 3D-only algorithm dispatched on a 2D instance
// errors through the dimension mask, not a silent zero coloring.
func TestDimensionMismatch(t *testing.T) {
	g2 := grid.MustGrid2D(3, 3)
	c, err := Run(BDL, g2, nil)
	if err == nil {
		t.Fatal("Run(BDL, 2D) must error")
	}
	if len(c.Start) != 0 {
		t.Errorf("error path returned a coloring with %d vertices", len(c.Start))
	}
}

// TestRegisterRejects covers the registry's validation.
func TestRegisterRejects(t *testing.T) {
	fn := func(grid.Stencil, *core.SolveOptions) (core.Coloring, error) {
		return core.Coloring{}, nil
	}
	cases := []struct {
		name string
		d    Descriptor
	}{
		{"empty name", Descriptor{Dims: Dim2D, Fn: fn}},
		{"nil fn", Descriptor{Name: "X1", Dims: Dim2D}},
		{"empty dims", Descriptor{Name: "X2", Fn: fn}},
		{"duplicate", Descriptor{Name: GLL, Dims: Dim2D, Fn: fn}},
	}
	for _, tc := range cases {
		if err := Register(tc.d); err == nil {
			t.Errorf("Register(%s) succeeded, want error", tc.name)
		}
	}
}

// TestFailingDecompositionSurfacesError is the regression test for the
// old dispatch path's `c, _ := BipartiteDecomposition2D(g)` pattern: a
// decomposition abandoned mid-solve (canceled context) must surface an
// error instead of a zero coloring that would silently win any portfolio.
func TestFailingDecompositionSurfacesError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := &core.SolveOptions{Ctx: ctx}

	g2 := grid.MustGrid2D(16, 16)
	g3 := grid.MustGrid3D(6, 6, 6)
	for _, alg := range []Algorithm{BD, BDP} {
		c, err := Run(alg, g2, opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s 2D canceled: err = %v, want context.Canceled", alg, err)
		}
		if len(c.Start) != 0 {
			t.Errorf("%s 2D canceled returned a (zero) coloring instead of none", alg)
		}
		if _, err := Run(alg, g3, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s 3D canceled: err = %v, want context.Canceled", alg, err)
		}
	}
	// The exported Opts variants propagate too.
	if _, _, err := BipartiteDecomposition2DOpts(g2, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("BipartiteDecomposition2DOpts: err = %v, want context.Canceled", err)
	}
	if _, _, err := BipartiteDecompositionPost3DOpts(g3, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("BipartiteDecompositionPost3DOpts: err = %v, want context.Canceled", err)
	}
}

// TestCancellationAllAlgorithms: every registered algorithm honors a
// canceled context on both dimensions it supports.
func TestCancellationAllAlgorithms(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := &core.SolveOptions{Ctx: ctx}
	g2 := grid.MustGrid2D(12, 12)
	g3 := grid.MustGrid3D(5, 5, 5)
	for _, d := range Descriptors() {
		if d.Dims.Has(2) {
			if _, err := Run(d.Name, g2, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s 2D: err = %v, want context.Canceled", d.Name, err)
			}
		}
		if d.Dims.Has(3) {
			if _, err := Run(d.Name, g3, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s 3D: err = %v, want context.Canceled", d.Name, err)
			}
		}
	}
}

// TestRunRecordsStats: dispatch through the registry feeds the stats
// sink's placement and probe counters.
func TestRunRecordsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := random2D(rng, 8, 8, 9)
	var stats core.Stats
	opts := &core.SolveOptions{Stats: &stats}
	for _, alg := range All() {
		if _, err := Run(alg, g, opts); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	// Every algorithm places all 64 vertices at least once.
	if got := stats.Placements(); got < int64(len(All())*g.Len()) {
		t.Errorf("placements = %d, want >= %d", got, len(All())*g.Len())
	}
	if stats.Probes() == 0 {
		t.Error("probes = 0, want > 0")
	}
}

// TestDimMaskString pins the mask rendering used in dispatch errors.
func TestDimMaskString(t *testing.T) {
	cases := map[DimMask]string{Dim2D: "2D", Dim3D: "3D", DimBoth: "2D/3D"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("DimMask(%d).String() = %q, want %q", m, got, want)
		}
	}
	if Dim2D.Has(3) || Dim3D.Has(2) || Dim2D.Has(4) {
		t.Error("DimMask.Has accepted a dimension outside the mask")
	}
}
