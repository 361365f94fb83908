package grid_test

import (
	"math/rand"
	"slices"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/resultcache"
)

// randomWeights returns n seeded weights in 0–9.
func randomWeights(rng *rand.Rand, n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = rng.Int63n(10)
	}
	return w
}

// TestBestHashesOnce: one heuristics.Best with a cache, on a fresh grid
// of either depth, hashes the grid's weights once, however many
// portfolio members look the grid up, and at Parallelism 4 however many
// of them do so at once. A repeated Best, every member a hit, hashes
// them not at all and returns the same answer.
func TestBestHashesOnce(t *testing.T) {
	hashes := grid.CountHashes(t)
	rng := rand.New(rand.NewSource(26))
	members := int64(len(heuristics.All()))
	for _, par := range []int{1, 4} {
		g2, err := grid.FromWeights2D(24, 20, randomWeights(rng, 24*20))
		if err != nil {
			t.Fatal(err)
		}
		g3, err := grid.FromWeights3D(8, 7, 6, randomWeights(rng, 8*7*6))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []grid.Stencil{g2, g3} {
			cache := resultcache.New(resultcache.Config{})
			opts := &core.SolveOptions{Cache: cache, Parallelism: par}
			before := hashes.Load()
			c1, alg1, err := heuristics.Best(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := hashes.Load() - before; n != 1 {
				t.Fatalf("%v par %d: Best hashed the weights %d times, want 1", g, par, n)
			}
			c2, alg2, err := heuristics.Best(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := hashes.Load() - before; n != 1 {
				t.Fatalf("%v par %d: a repeated Best hashed the weights again (%d passes in all)", g, par, n)
			}
			if st := cache.Snapshot(); st.Misses != members || st.Hits != members {
				t.Fatalf("%v par %d: %d misses and %d hits, want %d of each", g, par, st.Misses, st.Hits, members)
			}
			if alg2 != alg1 || !slices.Equal(c2.Start, c1.Start) {
				t.Fatalf("%v par %d: the repeated Best answered %s, the first %s", g, par, alg2, alg1)
			}
		}
	}
}

// TestDigestFollowsWeights: a grid's key is the key of its own weights
// whatever digest was kept before. Set after a lookup moves the key to
// that of a grid built with the new weights; a Clone or a Layer of a
// looked-up grid keys as a grid built from its weights does, and a Set
// on the original or the copy leaves the other's key alone.
func TestDigestFollowsWeights(t *testing.T) {
	key := func(g core.Graph) core.CacheKey { return resultcache.Fingerprint("GLL", g) }
	w := randomWeights(rand.New(rand.NewSource(27)), 4*3*2)
	build3 := func(w []int64) *grid.Grid3D {
		g, err := grid.FromWeights3D(4, 3, 2, w)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	build2 := func(w []int64) *grid.Grid2D {
		g, err := grid.FromWeights2D(4, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	with := func(w []int64, v int, wv int64) []int64 {
		w = slices.Clone(w)
		w[v] = wv
		return w
	}

	g := build3(w)
	k := key(g)
	clone, layer := g.Clone(), g.Layer(1)
	if key(clone) != k {
		t.Error("Clone of a looked-up grid keys apart from it")
	}
	if key(layer) != key(build2(w[12:])) {
		t.Error("Layer of a looked-up grid does not key as its weights")
	}
	g.Set(1, 2, 1, 10)
	w2 := with(w, g.ID(1, 2, 1), 10)
	if key(g) != key(build3(w2)) {
		t.Error("Set left the grid's key on its old weights")
	}
	if key(clone) != k || key(layer) != key(build2(w[12:])) {
		t.Error("Set on the grid moved the key of its Clone or Layer")
	}
	if key(g.Layer(1)) != key(build2(w2[12:])) {
		t.Error("Layer after Set does not key as its weights")
	}
	clone.Set(0, 0, 0, 11)
	if key(clone) != key(build3(with(w, 0, 11))) || key(g) != key(build3(w2)) {
		t.Error("Set on a Clone keys wrongly, or moved the original's key")
	}
	layer.Set(3, 2, 12)
	if key(layer) != key(build2(with(w[12:], 11, 12))) || key(g) != key(build3(w2)) {
		t.Error("Set on a Layer keys wrongly, or moved the original's key")
	}
}
