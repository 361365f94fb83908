package grid

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"stencilivc/internal/core"
)

// FuzzRead hardens the instance parser: arbitrary input must never panic,
// and anything it accepts must round-trip through the writer.
func FuzzRead(f *testing.F) {
	f.Add("ivc2d 2 2\n1 2 3 4\n")
	f.Add("ivc3d 2 2 2\n1 2 3 4 5 6 7 8\n")
	f.Add("ivc2d 1 1\n0\n")
	f.Add("# comment\nivc2d 2 1\n5 5\n")
	f.Add("ivc2d 1000000 1000000\n")
	f.Add("bogus\n")
	f.Fuzz(func(t *testing.T, input string) {
		g2, g3, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		switch {
		case g2 != nil:
			if err := Write2D(&buf, g2); err != nil {
				t.Fatalf("rewrite failed: %v", err)
			}
			b2, _, err := Read(&buf)
			if err != nil {
				t.Fatalf("reparse failed: %v", err)
			}
			if b2.X != g2.X || b2.Y != g2.Y {
				t.Fatalf("round trip changed dims")
			}
			for v := range g2.W {
				if b2.W[v] != g2.W[v] {
					t.Fatalf("round trip changed weight %d", v)
				}
			}
		case g3 != nil:
			if err := Write3D(&buf, g3); err != nil {
				t.Fatalf("rewrite failed: %v", err)
			}
			_, b3, err := Read(&buf)
			if err != nil {
				t.Fatalf("reparse failed: %v", err)
			}
			if b3.X != g3.X || b3.Y != g3.Y || b3.Z != g3.Z {
				t.Fatalf("round trip changed dims")
			}
		default:
			t.Fatal("Read returned neither grid without error")
		}
	})
}

// FuzzPlaceLattice cross-checks the kernel's lattice path against its
// generic path: on a grid of fuzzed extents (1–6 per axis, 2D or 3D)
// under a seeded partial coloring, a kernel bound to the grid and one
// bound to genericOnly{g} return the same start for every vertex, with
// no skip or with each of its neighbors skipped. Weights are mixed 0–9,
// or one common weight with slot-aligned starts so the free-map rung
// runs.
func FuzzPlaceLattice(f *testing.F) {
	// Extents are given minus one: (4, 3, 0) is a 5×4×1 grid.
	f.Add(false, uint8(5), uint8(4), uint8(0), int64(1), uint8(0), uint8(2))
	f.Add(false, uint8(2), uint8(2), uint8(0), int64(2), uint8(1), uint8(0))
	f.Add(true, uint8(2), uint8(2), uint8(2), int64(3), uint8(0), uint8(1))
	f.Add(true, uint8(4), uint8(3), uint8(0), int64(4), uint8(0), uint8(3))
	f.Add(true, uint8(4), uint8(0), uint8(3), int64(5), uint8(0), uint8(2))
	f.Add(true, uint8(0), uint8(4), uint8(3), int64(6), uint8(0), uint8(2))
	f.Add(true, uint8(3), uint8(3), uint8(3), int64(7), uint8(5), uint8(2))
	f.Add(true, uint8(5), uint8(5), uint8(5), int64(8), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, is3D bool, x, y, z uint8, seed int64, common, sparsity uint8) {
		x, y, z = x%6+1, y%6+1, z%6+1
		var g Stencil = MustGrid2D(int(x), int(y))
		if is3D {
			g = MustGrid3D(int(x), int(y), int(z))
		}
		rng := rand.New(rand.NewSource(seed))
		uni := int64(common % 10) // the common weight; 0 means mixed
		w := weights(g)
		for v := range w {
			w[v] = uni
			if uni == 0 {
				w[v] = rng.Int63n(10)
			}
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			if rng.Intn(int(sparsity%4)+2) > 0 {
				c.Start[v] = rng.Int63n(12) * max(uni, 1)
			}
		}
		var lattice, generic core.FitScratch
		for v := 0; v < g.Len(); v++ {
			for _, skip := range append([]int{-1}, g.Neighbors(v, nil)...) {
				got := lattice.PlaceLowest(g, c, v, skip)
				if want := generic.PlaceLowest(genericOnly{g}, c, v, skip); got != want {
					t.Fatalf("%v vertex %d skip %d: lattice=%d generic=%d", g, v, skip, got, want)
				}
			}
		}
	})
}
