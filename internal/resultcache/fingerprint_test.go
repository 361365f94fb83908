package resultcache

import (
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// grid2x3 builds a 2×3 grid with the given row-major weights.
func grid2x3(t *testing.T, w []int64) *grid.Grid2D {
	t.Helper()
	g, err := grid.FromWeights2D(2, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// csrOfGrid rebuilds g as a CSRGraph with the identical vertex weights
// and adjacency, with the edge list given in the order edges enumerates
// them.
func csrOfGrid(t *testing.T, g *grid.Grid2D, edges []core.Edge) *core.CSRGraph {
	t.Helper()
	w, _, _, _ := g.Lattice()
	c, err := core.NewCSRGraph(w, edges)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gridEdges enumerates g's 9-pt adjacency as an undirected edge list.
func gridEdges(g *grid.Grid2D) []core.Edge {
	var edges []core.Edge
	var buf []int
	for v := 0; v < g.Len(); v++ {
		buf = g.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u > v {
				edges = append(edges, core.Edge{U: v, V: u})
			}
		}
	}
	return edges
}

// TestFingerprintCanonicalization is the collision/canonicalization
// table: pairs of instances that MUST share a fingerprint (equal
// content through different construction orders) and pairs that MUST
// NOT (different kinds, dims, weights, or algorithms).
func TestFingerprintCanonicalization(t *testing.T) {
	w := []int64{1, 2, 3, 4, 5, 6}
	g := grid2x3(t, w)
	edges := gridEdges(g)

	// Reversed edge list: same edge set, different construction order.
	rev := make([]core.Edge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = core.Edge{U: e.V, V: e.U}
	}

	same := []struct {
		name string
		a, b core.CacheKey
	}{
		{"identical grids", Fingerprint("GLL", g), Fingerprint("GLL", grid2x3(t, w))},
		{"grid weight slice copied", Fingerprint("BDP", g),
			Fingerprint("BDP", grid2x3(t, append([]int64(nil), w...)))},
		{"csr edge order is not content", Fingerprint("GLL", csrOfGrid(t, g, edges)),
			Fingerprint("GLL", csrOfGrid(t, g, rev))},
	}
	for _, tc := range same {
		if tc.a != tc.b {
			t.Errorf("%s: fingerprints differ:\n  %s\n  %s", tc.name, tc.a, tc.b)
		}
	}

	g3, err := grid.FromWeights3D(2, 3, 1, w)
	if err != nil {
		t.Fatal(err)
	}

	gT, err := grid.FromWeights2D(3, 2, w)
	if err != nil {
		t.Fatal(err)
	}

	w2 := append([]int64(nil), w...)
	w2[3] = 40
	differ := []struct {
		name string
		a, b core.CacheKey
	}{
		{"algorithm is part of the key", Fingerprint("GLL", g), Fingerprint("GLF", g)},
		{"grid2d vs equivalent csr must not collide",
			Fingerprint("GLL", g), Fingerprint("GLL", csrOfGrid(t, g, edges))},
		{"grid2d vs z=1 grid3d must not collide", Fingerprint("GLL", g), Fingerprint("GLL", g3)},
		{"dims are content, not just the flat weights", Fingerprint("GLL", g), Fingerprint("GLL", gT)},
		{"weights are content", Fingerprint("GLL", g), Fingerprint("GLL", grid2x3(t, w2))},
		{"alg framing: GL+L vs GLL under a shifted boundary",
			Fingerprint("GLLx", g), Fingerprint("GLL", g)},
	}
	for _, tc := range differ {
		if tc.a == tc.b {
			t.Errorf("%s: fingerprints collide at %s", tc.name, tc.a)
		}
	}
}

// TestFingerprintTracksMutation pins the kept digest's one rule: a grid
// changed in place through Set must change its fingerprint (Set clears
// the digest the first Fingerprint kept on the grid).
func TestFingerprintTracksMutation(t *testing.T) {
	g := grid2x3(t, []int64{1, 2, 3, 4, 5, 6})
	before := Fingerprint("GLL", g)
	g.Set(0, 0, 9)
	if after := Fingerprint("GLL", g); after == before {
		t.Fatalf("fingerprint did not track the in-place weight mutation: %s", after)
	}
}

// TestFingerprintLargeGridStreams exercises the chunked path: a weight
// vector much larger than the digester's buffer must digest identically
// to itself and differently from a one-cell perturbation.
func TestFingerprintLargeGridStreams(t *testing.T) {
	const n = 64
	w := make([]int64, n*n)
	for i := range w {
		w[i] = int64(i%13 + 1)
	}
	a, err := grid.FromWeights2D(n, n, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := grid.FromWeights2D(n, n, w)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint("SGK", a) != Fingerprint("SGK", b) {
		t.Fatal("equal large grids digest differently")
	}
	b.Set(n-1, n-1, b.At(n-1, n-1)+1)
	if Fingerprint("SGK", a) == Fingerprint("SGK", b) {
		t.Fatal("last-cell perturbation not reflected in the digest")
	}
}

// TestFingerprintGoldenKeys pins the key bytes themselves. FileStore
// addresses persisted entries by these keys, so a change to the
// canonical encoding — or to how it is streamed into the hash — that
// moved them would silently orphan every entry on disk. The 2D grid's
// weights span several chunks of the grid digest's portable loop; the
// 3D grid ends mid-chunk.
func TestFingerprintGoldenKeys(t *testing.T) {
	weights := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(i*7919%97) * 1_000_003 // zeros and multi-byte values
		}
		return w
	}
	g2, err := grid.FromWeights2D(40, 30, weights(40*30))
	if err != nil {
		t.Fatal(err)
	}
	g3, err := grid.FromWeights3D(9, 8, 7, weights(9*8*7))
	if err != nil {
		t.Fatal(err)
	}
	small := grid2x3(t, []int64{1, 2, 3, 4, 5, 6})
	csr := csrOfGrid(t, small, gridEdges(small))
	for _, tc := range []struct {
		name string
		key  core.CacheKey
		want string
	}{
		{"grid2d 40x30", Fingerprint("GLL", g2), "0d4a6de76cb87606a612ac7636c5b97b5abf2f825338a0b3aed6c5822fd8e739"},
		{"grid3d 9x8x7", Fingerprint("BDP", g3), "831fca3c5d4e6a2430573c89c3ccfd1a74d117d4a107c052c93b9d8fdc174cd2"},
		{"csr 2x3", Fingerprint("GLF", csr), "4853d17ed2ffd16e0e174c7292f18c4bc9cdc4e9ca46fb484f1770ea297987d4"},
	} {
		if got := tc.key.String(); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}
