package parallel

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// rand2D returns an x×y grid with weights in [0, maxW] (zeros included,
// exercising the empty-interval paths).
func rand2D(t testing.TB, x, y int, maxW int64, seed int64) *grid.Grid2D {
	t.Helper()
	g := grid.MustGrid2D(x, y)
	rng := rand.New(rand.NewSource(seed))
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(maxW+1))
	}
	return g
}

func rand3D(t testing.TB, x, y, z int, maxW int64, seed int64) *grid.Grid3D {
	t.Helper()
	g := grid.MustGrid3D(x, y, z)
	rng := rand.New(rand.NewSource(seed))
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(maxW+1))
	}
	return g
}

// seqGreedy is the sequential reference: plain lowest-fit greedy in
// line-by-line order (GLL).
func seqGreedy(t testing.TB, s grid.Stencil) core.Coloring {
	t.Helper()
	c, err := core.GreedyColorOpts(s, s.LineOrder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGreedyValid sweeps grid shapes, tile sizes, parallelism, orders,
// and both speculation modes; every run must produce a coloring the
// validator accepts, and a one-worker run, which colors the tiles in
// order in either mode, must repeat its coloring exactly.
func TestGreedyValid(t *testing.T) {
	stencils := []grid.Stencil{
		rand2D(t, 1, 1, 5, 1),
		rand2D(t, 1, 17, 5, 2), // degenerate chain
		rand2D(t, 17, 1, 5, 3),
		rand2D(t, 13, 9, 7, 4),
		rand2D(t, 33, 29, 9, 5),
		rand3D(t, 1, 1, 9, 5, 6), // doubly-degenerate
		rand3D(t, 7, 5, 3, 6, 7),
		rand3D(t, 9, 9, 9, 8, 8),
	}
	for _, s := range stencils {
		for _, tile := range []int{1, 3, 8, 0} { // 0 = default size
			for _, par := range []int{1, 4} {
				for _, order := range []Order{OrderLine, OrderWeightDesc} {
					for _, blind := range []bool{false, true} {
						cfg := Config{TileSize: tile, Order: order, SpeculateBlind: blind}
						opts := &core.SolveOptions{Parallelism: par}
						c, err := Greedy(s, cfg, opts)
						if err != nil {
							t.Fatalf("%dD tile=%d par=%d order=%d blind=%v: %v",
								s.Dims(), tile, par, order, blind, err)
						}
						if err := c.Validate(s); err != nil {
							t.Fatalf("%dD tile=%d par=%d order=%d blind=%v: %v",
								s.Dims(), tile, par, order, blind, err)
						}
						if par > 1 {
							continue
						}
						again, err := Greedy(s, cfg, opts)
						if err != nil || !slices.Equal(again.Start, c.Start) {
							t.Fatalf("%dD tile=%d order=%d blind=%v: one-worker solve not repeatable (err %v)",
								s.Dims(), tile, order, blind, err)
						}
					}
				}
			}
		}
	}
}

// maxColorSlack is the recorded quality bound of the speculative solver:
// across the equivalence suites, the tile-parallel maxcolor stays within
// this factor of the sequential line-by-line greedy (it is usually equal
// or better; conflicts are confined to tile halos). The theoretical
// worst case for any greedy family is far larger — this constant
// documents the observed envelope and guards regressions.
const maxColorSlack = 1.5

// TestMaxColorNearSequential compares the tile-parallel maxcolor against
// sequential greedy across random suites, in the worst-case blind mode
// (which maximizes conflicts and is deterministic on every runner).
func TestMaxColorNearSequential(t *testing.T) {
	type inst struct {
		s    grid.Stencil
		name string
	}
	var suite []inst
	for i, dims := range [][2]int{{16, 16}, {31, 17}, {64, 5}, {40, 40}} {
		g := rand2D(t, dims[0], dims[1], 20, int64(100+i))
		suite = append(suite, inst{g, g.String()})
	}
	for i, dims := range [][3]int{{8, 8, 8}, {16, 5, 7}, {12, 12, 3}} {
		g := rand3D(t, dims[0], dims[1], dims[2], 20, int64(200+i))
		suite = append(suite, inst{g, g.String()})
	}
	for _, in := range suite {
		seq := seqGreedy(t, in.s).MaxColor(in.s)
		for _, par := range []int{1, 4} {
			c, err := Greedy(in.s, Config{TileSize: 4, SpeculateBlind: true},
				&core.SolveOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(in.s); err != nil {
				t.Fatal(err)
			}
			got := c.MaxColor(in.s)
			if float64(got) > maxColorSlack*float64(seq) {
				t.Errorf("%s par=%d: parallel maxcolor %d > %.2f × sequential %d",
					in.name, par, got, maxColorSlack, seq)
			}
			t.Logf("%s par=%d: parallel=%d sequential=%d (ratio %.3f)",
				in.name, par, got, seq, float64(got)/float64(seq))
		}
	}
}

// TestDeterministicBlind: with SpeculateBlind the solve is a pure
// function of the instance — identical colorings at any parallelism.
func TestDeterministicBlind(t *testing.T) {
	g := rand2D(t, 37, 23, 11, 42)
	cfg := Config{TileSize: 5, SpeculateBlind: true}
	ref, err := Greedy(g, cfg, &core.SolveOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		for trial := 0; trial < 3; trial++ {
			c, err := Greedy(g, cfg, &core.SolveOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for v := range c.Start {
				if c.Start[v] != ref.Start[v] {
					t.Fatalf("par=%d trial=%d: vertex %d start %d != reference %d",
						par, trial, v, c.Start[v], ref.Start[v])
				}
			}
		}
	}
}

// TestRepairDenseConflicts: 2-cell tiles and blind speculation put
// most cells on a tile face and make many of them losers; the one
// repair pass must still leave a valid coloring.
func TestRepairDenseConflicts(t *testing.T) {
	g := rand2D(t, 29, 31, 9, 9)
	c, err := Greedy(g, Config{TileSize: 2, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestSingleTile: a tile covering the whole grid reduces to plain
// sequential greedy in line order — byte-identical colorings.
func TestSingleTile(t *testing.T) {
	g := rand2D(t, 12, 11, 6, 13)
	c, err := Greedy(g, Config{TileSize: 64}, &core.SolveOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := seqGreedy(t, g)
	for v := range c.Start {
		if c.Start[v] != ref.Start[v] {
			t.Fatalf("vertex %d: start %d != sequential %d", v, c.Start[v], ref.Start[v])
		}
	}
}

// TestCancellation: a canceled context aborts the solve with the
// context's error.
func TestCancellation(t *testing.T) {
	g := rand2D(t, 64, 64, 9, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Greedy(g, Config{TileSize: 8}, &core.SolveOptions{Ctx: ctx, Parallelism: 4})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStats: the solver reports placements for every vertex (at least)
// and the probes behind them.
func TestStats(t *testing.T) {
	g := rand2D(t, 20, 20, 9, 21)
	stats := &core.Stats{}
	_, err := Greedy(g, Config{TileSize: 4, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 2, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Placements(); got < int64(g.Len()) {
		t.Errorf("placements = %d, want >= %d", got, g.Len())
	}
	if stats.Probes() <= 0 {
		t.Error("no probes counted")
	}
}

// TestZeroWeights: an all-zero grid colors at maxcolor 0.
func TestZeroWeights(t *testing.T) {
	g := grid.MustGrid2D(10, 10)
	c, err := Greedy(g, Config{TileSize: 3}, &core.SolveOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if mc := c.MaxColor(g); mc != 0 {
		t.Errorf("maxcolor = %d, want 0", mc)
	}
}
