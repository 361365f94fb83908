package heuristics

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// goldenFile pins, per (algorithm, shape, weight family), the FNV-64a
// hash of the returned Start slice. The hashes were recorded before the
// visit orders moved onto the radix ordering kernel and the compact
// clique cover; any drift in a vertex order, a block order, a tie-break,
// or a block's member order shows up here as a changed hash.
const goldenFile = "testdata/golden_colorings.txt"

// goldenFamilies are the weight families of the golden instances:
// random 1–9, a constant, and weights spread over 40 bits so the
// ordering keys differ in several bytes.
var goldenFamilies = []struct {
	name string
	draw func(rng *rand.Rand) int64
}{
	{"rand9", func(rng *rand.Rand) int64 { return 1 + rng.Int63n(9) }},
	{"const7", func(*rand.Rand) int64 { return 7 }},
	{"wide40", func(rng *rand.Rand) int64 { return rng.Int63n(1 << 40) }},
}

var (
	golden2DShapes = [][2]int{{1, 1}, {1, 7}, {9, 1}, {2, 2}, {17, 13}, {64, 64}, {100, 37}}
	golden3DShapes = [][3]int{
		{1, 1, 1}, {1, 1, 6}, {1, 5, 4}, {4, 1, 5}, {6, 3, 1}, {2, 2, 2}, {7, 5, 3}, {16, 16, 16},
	}
	golden2DAlgs = []Algorithm{GLL, GZO, GLF, GKF, SGK, BD, BDP}
	golden3DAlgs = []Algorithm{GLL, GZO, GLF, GKF, SGK, BD, BDP, BDL}
)

// goldenWeights draws n weights of one family from a seed derived from
// the instance label, so every algorithm sees the same instance.
func goldenWeights(label string, n int, draw func(*rand.Rand) int64) []int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	w := make([]int64, n)
	for v := range w {
		w[v] = draw(rng)
	}
	return w
}

// startsHash is the FNV-64a hash of the starts, little-endian.
func startsHash(c core.Coloring) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range c.Start {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenColorings solves every golden case and returns its hash by name
// ("<alg> <shape> <family>"), validating each coloring on the way.
func goldenColorings(t *testing.T) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	record := func(name string, g core.Graph, c core.Coloring) {
		if err := c.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = startsHash(c)
	}
	for _, fam := range goldenFamilies {
		for _, sh := range golden2DShapes {
			label := fmt.Sprintf("%dx%d %s", sh[0], sh[1], fam.name)
			g, err := grid.FromWeights2D(sh[0], sh[1], goldenWeights(label, sh[0]*sh[1], fam.draw))
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range golden2DAlgs {
				c, err := Run(alg, g, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", alg, label, err)
				}
				record(string(alg)+" "+label, g, c)
			}
		}
		for _, sh := range golden3DShapes {
			label := fmt.Sprintf("%dx%dx%d %s", sh[0], sh[1], sh[2], fam.name)
			g, err := grid.FromWeights3D(sh[0], sh[1], sh[2],
				goldenWeights(label, sh[0]*sh[1]*sh[2], fam.draw))
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range golden3DAlgs {
				c, err := Run(alg, g, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", alg, label, err)
				}
				record(string(alg)+" "+label, g, c)
			}
		}
		// The full-permutation SGK ablation, on a grid small enough for
		// its up-to-8! search per block.
		label := "3x3x2 " + fam.name
		g, err := grid.FromWeights3D(3, 3, 2, goldenWeights(label, 18, fam.draw))
		if err != nil {
			t.Fatal(err)
		}
		record("SGK3DFull "+label, g, SmartLargestCliqueFirst3DFull(g))
	}
	return got
}

// readGolden parses goldenFile: "<alg> <shape> <family> <hex hash>"
// lines, with # comments.
func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		h, err := strconv.ParseUint(line[i+1:], 16, 64)
		if err != nil {
			t.Fatalf("%s: line %q: %v", goldenFile, line, err)
		}
		want[line[:i]] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenColorings pins every block and vertex order byte for byte:
// each algorithm must reproduce the recorded starts on every golden
// instance, including the degenerate shapes and 40-bit weights.
func TestGoldenColorings(t *testing.T) {
	want := readGolden(t)
	got := goldenColorings(t)
	for name, h := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden hash (got %016x)", name, h)
		case h != w:
			t.Errorf("%s: starts hash %016x, golden %016x", name, h, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden entry has no case", name)
		}
	}
}
