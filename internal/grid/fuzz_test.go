package grid

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stencilivc/internal/core"
)

// FuzzRead hardens the instance parser: arbitrary input must never panic,
// it must accept and reject exactly what the strings.Fields tokenizer
// it replaced did (same weights, same error text), and anything it
// accepts must round-trip through the writer.
func FuzzRead(f *testing.F) {
	f.Add("ivc2d 2 2\n1 2 3 4\n")
	f.Add("ivc3d 2 2 2\n1 2 3 4 5 6 7 8\n")
	f.Add("ivc2d 1 1\n0\n")
	f.Add("# comment\nivc2d 2 1\n5 5\n")
	f.Add("ivc2d 1000000 1000000\n")
	f.Add("bogus\n")
	f.Add("ivc2d 3 1\n1\u00a02\u20283\n")   // Unicode spaces separate fields
	f.Add("ivc2d 2 1\n1\u00852\xff\n")      // NEL separates; invalid UTF-8 does not
	f.Add("ivc3d 1 2 1\r\n\v7\f8\t# x\r\n") // ASCII spaces and a comment
	f.Fuzz(func(t *testing.T, input string) {
		g2, g3, err := Read(strings.NewReader(input))
		r2, r3, rerr := referenceRead(strings.NewReader(input))
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("Read error %v, reference tokenizer error %v", err, rerr)
		}
		if err != nil {
			return
		}
		switch {
		case g2 != nil && (r2 == nil || !slices.Equal(g2.w, r2.w) || g2.X() != r2.X() || g2.Y() != r2.Y()):
			t.Fatalf("Read built %v %v, reference tokenizer %v", g2, g2.w, r2)
		case g3 != nil && (r3 == nil || !slices.Equal(g3.w, r3.w) || g3.X() != r3.X() || g3.Y() != r3.Y() || g3.Z() != r3.Z()):
			t.Fatalf("Read built %v %v, reference tokenizer %v", g3, g3.w, r3)
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
			if b2.X() != g2.X() || b2.Y() != g2.Y() {
				t.Fatalf("round trip changed dims")
			}
			for v := range g2.Len() {
				if b2.Weight(v) != g2.Weight(v) {
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
			if b3.X() != g3.X() || b3.Y() != g3.Y() || b3.Z() != g3.Z() {
				t.Fatalf("round trip changed dims")
			}
			for v := range g3.Len() {
				if b3.Weight(v) != g3.Weight(v) {
					t.Fatalf("round trip changed weight %d", v)
				}
			}
		default:
			t.Fatal("Read returned neither grid without error")
		}
	})
}

// referenceRead is Read as it was before it tokenized in place: a
// string per line and strings.Fields. FuzzRead holds Read to it.
func referenceRead(r io.Reader) (*Grid2D, *Grid3D, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	nextTokens := func() ([]string, error) {
		for sc.Scan() {
			line := sc.Text()
			if idx := strings.IndexByte(line, '#'); idx >= 0 {
				line = line[:idx]
			}
			if fields := strings.Fields(line); len(fields) > 0 {
				return fields, nil
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	readWeights := func(n int) ([]int64, error) {
		weights := make([]int64, 0, min(n, maxWeightPresize))
		for len(weights) < n {
			fields, err := nextTokens()
			if err != nil {
				return nil, fmt.Errorf("grid: want %d weights, got %d: %w", n, len(weights), err)
			}
			for _, f := range fields {
				w, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("grid: bad weight %q: %w", f, err)
				}
				weights = append(weights, w)
				if len(weights) > n {
					return nil, fmt.Errorf("grid: more than %d weights", n)
				}
			}
		}
		return weights, nil
	}
	header, err := nextTokens()
	if err != nil {
		return nil, nil, fmt.Errorf("grid: missing header: %w", err)
	}
	switch header[0] {
	case "ivc2d":
		if len(header) != 3 {
			return nil, nil, fmt.Errorf("grid: ivc2d header wants 2 dims, got %d", len(header)-1)
		}
		x, err1 := strconv.Atoi(header[1])
		y, err2 := strconv.Atoi(header[2])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("grid: bad ivc2d dimensions %q %q", header[1], header[2])
		}
		n, err := cells2D(x, y)
		if err != nil {
			return nil, nil, err
		}
		weights, err := readWeights(n)
		if err != nil {
			return nil, nil, err
		}
		g, err := FromWeights2D(x, y, weights)
		if err != nil {
			return nil, nil, err
		}
		return g, nil, nil
	case "ivc3d":
		if len(header) != 4 {
			return nil, nil, fmt.Errorf("grid: ivc3d header wants 3 dims, got %d", len(header)-1)
		}
		x, err1 := strconv.Atoi(header[1])
		y, err2 := strconv.Atoi(header[2])
		z, err3 := strconv.Atoi(header[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("grid: bad ivc3d dimensions %q %q %q", header[1], header[2], header[3])
		}
		n, err := cells3D(x, y, z)
		if err != nil {
			return nil, nil, err
		}
		weights, err := readWeights(n)
		if err != nil {
			return nil, nil, err
		}
		g, err := FromWeights3D(x, y, z, weights)
		if err != nil {
			return nil, nil, err
		}
		return nil, g, nil
	default:
		return nil, nil, fmt.Errorf("grid: unknown header %q", header[0])
	}
}

// FuzzPlaceLattice cross-checks the kernel's lattice path against its
// generic path: on a grid of fuzzed extents (1–6 per axis, 2D or 3D)
// under a seeded partial coloring, a kernel bound to the grid and one
// bound to genericOnly{g} return the same start for every vertex, with
// no skip or with each of its neighbors skipped, and tally the same
// placements and probes. On every vertex the lattice kernel's Place,
// which reads an interior vertex's neighbors off the offset table,
// agrees with PlaceAmong over its Neighbors list. Weights are mixed
// 0–9, or one common weight with slot-aligned starts so the free-map
// rung runs.
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
		for v := range g.Len() {
			w := uni
			if uni == 0 {
				w = rng.Int63n(10)
			}
			setWeight(g, v, w)
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			if rng.Intn(int(sparsity%4)+2) > 0 {
				c.Start[v] = rng.Int63n(12) * max(uni, 1)
			}
		}
		var lattice, generic, list core.FitScratch
		list.Bind(g)
		for v := 0; v < g.Len(); v++ {
			for _, skip := range append([]int{-1}, g.Neighbors(v, nil)...) {
				got := lattice.PlaceLowest(g, c, v, skip)
				if want := generic.PlaceLowest(genericOnly{g}, c, v, skip); got != want {
					t.Fatalf("%v vertex %d skip %d: lattice=%d generic=%d", g, v, skip, got, want)
				}
			}
			if got, want := lattice.Place(c, v), list.PlaceAmong(c, v, list.Neighbors(v)); got != want {
				t.Fatalf("%v vertex %d: Place=%d, PlaceAmong(Neighbors)=%d", g, v, got, want)
			}
		}
		var lt, gt, pt core.Stats
		lattice.Flush(&core.SolveOptions{Stats: &lt})
		generic.Flush(&core.SolveOptions{Stats: &gt})
		list.Flush(&core.SolveOptions{Stats: &pt})
		// The lattice kernel placed each vertex once more than the
		// generic one, through Place, and the list kernel each once.
		if lt.Placements() != gt.Placements()+pt.Placements() || lt.Probes() != gt.Probes()+pt.Probes() {
			t.Fatalf("%v: lattice tallied %d/%d, generic %d/%d plus list %d/%d", g,
				lt.Placements(), lt.Probes(), gt.Placements(), gt.Probes(), pt.Placements(), pt.Probes())
		}
	})
}
