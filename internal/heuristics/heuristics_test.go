package heuristics

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/exact"
	"stencilivc/internal/grid"
)

func random2D(rng *rand.Rand, x, y int, maxW int64) *grid.Grid2D {
	g := grid.MustGrid2D(x, y)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(maxW+1))
	}
	return g
}

func random3D(rng *rand.Rand, x, y, z int, maxW int64) *grid.Grid3D {
	g := grid.MustGrid3D(x, y, z)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(maxW+1))
	}
	return g
}

// mustRun solves s with alg through the registry, failing the test on
// an error.
func mustRun(t testing.TB, alg Algorithm, s grid.Stencil) core.Coloring {
	t.Helper()
	c, err := Run(alg, s, nil)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return c
}

// TestAllAlgorithmsValid2D is the central property test: on random 2D
// instances (including degenerate 1×N shapes and zero weights), every
// algorithm returns a valid coloring at or above the combined lower bound.
func TestAllAlgorithmsValid2D(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][2]int{{1, 1}, {1, 7}, {6, 1}, {2, 2}, {3, 5}, {8, 8}, {16, 4}}
	for trial := 0; trial < 40; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		g := random2D(rng, shape[0], shape[1], 9)
		lb := bounds.Combined2D(g, 0)
		for _, alg := range All() {
			c, err := Run(alg, g, nil)
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", alg, g.X(), g.Y(), err)
			}
			if err := c.Validate(g); err != nil {
				t.Fatalf("%s on %dx%d invalid: %v", alg, g.X(), g.Y(), err)
			}
			if mc := c.MaxColor(g); mc < lb {
				t.Fatalf("%s produced %d colors, below lower bound %d", alg, mc, lb)
			}
		}
	}
}

// TestAllAlgorithmsValid3D mirrors the 2D property test in 3D.
func TestAllAlgorithmsValid3D(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := [][3]int{{1, 1, 1}, {2, 2, 2}, {1, 4, 4}, {4, 1, 3}, {3, 3, 3}, {4, 4, 4}, {2, 5, 3}}
	for trial := 0; trial < 25; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		g := random3D(rng, shape[0], shape[1], shape[2], 9)
		lb := bounds.Combined3D(g, 0)
		for _, alg := range All() {
			c, err := Run(alg, g, nil)
			if err != nil {
				t.Fatalf("%s on %v: %v", alg, shape, err)
			}
			if err := c.Validate(g); err != nil {
				t.Fatalf("%s on %v invalid: %v", alg, shape, err)
			}
			if mc := c.MaxColor(g); mc < lb {
				t.Fatalf("%s produced %d colors, below lower bound %d", alg, mc, lb)
			}
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	g2 := grid.MustGrid2D(2, 2)
	if _, err := Run("NOPE", g2, nil); err == nil {
		t.Error("unknown 2D algorithm accepted")
	}
	g3 := grid.MustGrid3D(2, 2, 2)
	if _, err := Run("NOPE", g3, nil); err == nil {
		t.Error("unknown 3D algorithm accepted")
	}
}

// TestBD2ApproxGuarantee checks BD's proof obligations on random 2D
// instances: maxcolor <= 2·RC and RC <= optimum (via exact solve).
func TestBD2ApproxGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		g := random2D(rng, 2+rng.Intn(2), 2+rng.Intn(2), 5)
		c, rc, err := decompose(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		if mc := c.MaxColor(g); mc > 2*rc {
			t.Fatalf("BD used %d > 2·RC = %d", mc, 2*rc)
		}
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: bounds.Combined2D(g, 1000),
			NodeBudget: 500_000,
		})
		if res.Optimal {
			if rc > res.MaxColor {
				t.Fatalf("RC = %d exceeds optimum %d", rc, res.MaxColor)
			}
			if c.MaxColor(g) > 2*res.MaxColor {
				t.Fatalf("BD = %d > 2·OPT = %d", c.MaxColor(g), 2*res.MaxColor)
			}
		}
	}
}

// TestBD4ApproxGuarantee3D checks BD's 3D obligations: valid, and within
// 4× of the optimum whenever the exact solver finishes.
func TestBD4ApproxGuarantee3D(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 6; trial++ {
		g := random3D(rng, 2, 2, 2, 4)
		c, lb, err := decompose(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: bounds.Combined3D(g, 1000),
			NodeBudget: 500_000,
		})
		if res.Optimal {
			if lb > res.MaxColor {
				t.Fatalf("BD lower bound %d exceeds optimum %d", lb, res.MaxColor)
			}
			if c.MaxColor(g) > 4*res.MaxColor {
				t.Fatalf("BD = %d > 4·OPT = %d", c.MaxColor(g), 4*res.MaxColor)
			}
		}
	}
}

// TestBDPNeverWorseThanBD asserts the compaction property: recoloring
// never increases any start, so BDP <= BD on every instance.
func TestBDPNeverWorseThanBD(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 30; trial++ {
		g2 := random2D(rng, 2+rng.Intn(7), 2+rng.Intn(7), 12)
		bd, bdp := mustRun(t, BD, g2), mustRun(t, BDP, g2)
		if bdp.MaxColor(g2) > bd.MaxColor(g2) {
			t.Fatalf("2D BDP %d > BD %d", bdp.MaxColor(g2), bd.MaxColor(g2))
		}
		g3 := random3D(rng, 2+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(3), 12)
		bd3, bdp3 := mustRun(t, BD, g3), mustRun(t, BDP, g3)
		if bdp3.MaxColor(g3) > bd3.MaxColor(g3) {
			t.Fatalf("3D BDP %d > BD %d", bdp3.MaxColor(g3), bd3.MaxColor(g3))
		}
	}
}

// TestSGKNeverWorseThanGKFLocally: SGK tries the identity order among its
// permutations, so its block-local objective is at most GKF's. Globally
// SGK can differ, but on a single isolated block they must agree or SGK
// wins.
func TestSGKSingleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		g := random2D(rng, 2, 2, 9)
		gkf, sgk := mustRun(t, GKF, g), mustRun(t, SGK, g)
		if sgk.MaxColor(g) > gkf.MaxColor(g) {
			t.Fatalf("SGK %d > GKF %d on a single K4", sgk.MaxColor(g), gkf.MaxColor(g))
		}
		// A single K4 is a clique: both must hit the clique optimum.
		w, _, _, _ := g.Lattice()
		want := bounds.CliqueSum(w)
		if gkf.MaxColor(g) != want || sgk.MaxColor(g) != want {
			t.Fatalf("K4 coloring: gkf=%d sgk=%d want=%d", gkf.MaxColor(g), sgk.MaxColor(g), want)
		}
	}
}

// TestUniformGridsHitCliqueBound: constant-weight instances are solved
// optimally by every clique-aware heuristic (the K4/K8 bound is achieved).
func TestUniformGridsHitCliqueBound(t *testing.T) {
	g := grid.MustGrid2D(6, 6)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, 5)
	}
	lb := bounds.MaxK4(g) // 20
	for _, alg := range All() {
		c, err := Run(alg, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		mc := c.MaxColor(g)
		if mc < lb {
			t.Fatalf("%s below bound", alg)
		}
		// All algorithms should reach the bound on uniform instances; the
		// geometric greedy orders provably do (4 colors of 5 in a 2x2 tile).
		if mc != lb {
			t.Logf("%s on uniform grid: %d (bound %d)", alg, mc, lb)
		}
	}
	gll, _ := Run(GLL, g, nil)
	if gll.MaxColor(g) != lb {
		t.Errorf("GLL on uniform grid = %d, want %d", gll.MaxColor(g), lb)
	}
}

// TestHeuristicsVsExactSmall quantifies quality: on small random grids
// every heuristic stays within its guarantee of the true optimum and at
// least one of them finds it reasonably often (sanity against regression
// to absurd colorings).
func TestHeuristicsVsExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	hits := 0
	trials := 12
	for trial := 0; trial < trials; trial++ {
		g := random2D(rng, 3, 3, 5)
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: bounds.Combined2D(g, 1000),
			NodeBudget: 500_000,
		})
		if !res.Optimal {
			continue
		}
		best := int64(1) << 62
		for _, alg := range All() {
			c, err := Run(alg, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, c.MaxColor(g))
		}
		if best < res.MaxColor {
			t.Fatalf("heuristic beat the exact optimum: %d < %d", best, res.MaxColor)
		}
		if best == res.MaxColor {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no heuristic ever matched the optimum on 3x3 grids; suspicious")
	}
}

// TestWeightDescOrder: GLF colors by non-increasing weight, ties by id.
// On the 3×1 grid, the chain 2-9-4, that visits 9, 4, 2: the 9 takes
// [0,9) and both of its neighbors stack on top of it.
func TestWeightDescOrder(t *testing.T) {
	g, err := grid.FromWeights2D(3, 1, []int64{2, 9, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustRun(t, GLF, g).Start, []int64{9, 0, 9}; !slices.Equal(got, want) {
		t.Errorf("GLF starts = %v, want %v", got, want)
	}
}

func TestRunAlgorithmsOnSingleVertex(t *testing.T) {
	g2 := grid.MustGrid2D(1, 1)
	g2.Set(0, 0, 7)
	for _, alg := range All() {
		c, err := Run(alg, g2, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if c.MaxColor(g2) != 7 {
			t.Fatalf("%s on single vertex = %d", alg, c.MaxColor(g2))
		}
	}
	g3 := grid.MustGrid3D(1, 1, 1)
	g3.Set(0, 0, 0, 3)
	for _, alg := range All() {
		c, err := Run(alg, g3, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if c.MaxColor(g3) != 3 {
			t.Fatalf("%s on single 3D vertex = %d", alg, c.MaxColor(g3))
		}
	}
}

// TestRunHonorsDeadline: a context deadline bounds the solve — an
// already-expired one aborts before the algorithm runs, and a generous
// one changes nothing.
func TestRunHonorsDeadline(t *testing.T) {
	g := random2D(rand.New(rand.NewSource(11)), 32, 32, 9)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	opts := &core.SolveOptions{Ctx: expired}
	if _, err := Run(GLL, g, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}

	generous, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	opts = &core.SolveOptions{Ctx: generous, Tenant: "t"}
	c, err := Run(GLL, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(GLL, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxColor(g) != want.MaxColor(g) {
		t.Fatalf("deadline-bounded solve diverged: %d vs %d", c.MaxColor(g), want.MaxColor(g))
	}
}
