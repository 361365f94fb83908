package parallel

import (
	"math/rand"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// FuzzGreedyRepair drives the speculate/repair loop over fuzzer-chosen
// small grids, weights, tile sizes, and parallelism, in both optimistic
// and blind speculation modes. Every run must reach a fixpoint with a
// coloring the core validator accepts, and blind runs must also match a
// deterministic replay.
func FuzzGreedyRepair(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(4), uint8(0), uint8(2), uint8(3), false)
	f.Add(int64(7), uint8(16), uint8(1), uint8(0), uint8(1), uint8(1), true)
	f.Add(int64(9), uint8(3), uint8(3), uint8(3), uint8(2), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, xr, yr, zr, tileR, parR uint8, blind bool) {
		x := int(xr%24) + 1
		y := int(yr%24) + 1
		z := int(zr % 5) // 0 → 2D instance
		tile := int(tileR%6) + 1
		par := int(parR%8) + 1
		rng := rand.New(rand.NewSource(seed))

		var s grid.Stencil
		if z == 0 {
			g := grid.MustGrid2D(x, y)
			for v := range g.Len() {
				i, j := g.Coords(v)
				g.Set(i, j, rng.Int63n(12))
			}
			s = g
		} else {
			g := grid.MustGrid3D(x, y, z)
			for v := range g.Len() {
				i, j, k := g.Coords(v)
				g.Set(i, j, k, rng.Int63n(12))
			}
			s = g
		}

		cfg := Config{TileSize: tile, SpeculateBlind: blind}
		c, err := Greedy(s, cfg, &core.SolveOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(s); err != nil {
			t.Fatalf("tile=%d par=%d blind=%v: %v", tile, par, blind, err)
		}
		if blind {
			again, err := Greedy(s, cfg, &core.SolveOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for v := range c.Start {
				if c.Start[v] != again.Start[v] {
					t.Fatalf("blind solve not deterministic at vertex %d: %d vs %d",
						v, c.Start[v], again.Start[v])
				}
			}
		}
	})
}
