// This directory held the in-process sharded solver. Its fixpoint was,
// by construction, the sequential greedy coloring over the same global
// order, and it ran slower than that greedy at every shard count, so it
// was removed. This test-only package keeps its equivalence cases as
// the promise the removal rests on: a caller that used to shard a GLL
// or GLF solve gets the same bytes by asking for GLL or GLF.
package distsolve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/parallel"
)

// shardedHashes are the FNV-64a hashes of Coloring.Start (little-endian
// int64s) that the sharded solver returned for each instance and order,
// recorded at 2, 4, 7 and 16 shards; the hash did not depend on the
// shard count. Order 0 is line order (GLL), order 1 non-increasing
// weight (GLF).
var shardedHashes = map[string]uint64{
	"2d-40x40/order=0":            0x379a6084f287d88e,
	"2d-40x40/order=1":            0x95a8eb4c6f27cb2f,
	"2d-strip-1x64/order=0":       0xc8ce6ce0aacdcdaf,
	"2d-strip-1x64/order=1":       0xedaa6882496c7b63,
	"2d-strip-64x1/order=0":       0xc8ce6ce0aacdcdaf,
	"2d-strip-64x1/order=1":       0xedaa6882496c7b63,
	"2d-tiny-3x3/order=0":         0x5790c709ec3ac8e2,
	"2d-tiny-3x3/order=1":         0x16cfa2c2e3d57cee,
	"2d-zero-top-half/order=0":    0x462bd144085487ad,
	"2d-zero-top-half/order=1":    0x941a82759819e681,
	"2d-all-zero-weights/order=0": 0xd6d7c0c9db5a6bc5,
	"2d-all-zero-weights/order=1": 0xd6d7c0c9db5a6bc5,
	"3d-10x8x6/order=0":           0xa70479eaa2a181a5,
	"3d-10x8x6/order=1":           0x0da23f72fd027625,
}

// weighted2D returns an x by y grid with varied weights.
func weighted2D(x, y int) *grid.Grid2D {
	g := grid.MustGrid2D(x, y)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%7)+1)
	}
	return g
}

// weighted3D returns an x by y by z grid with varied weights.
func weighted3D(x, y, z int) *grid.Grid3D {
	g := grid.MustGrid3D(x, y, z)
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, int64(v%5)+1)
	}
	return g
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

// TestEquivalenceNoFault: for every shard count and both global orders
// the sharded solver accepted, on 2D and 3D instances including
// degenerate shapes (strips, grids smaller than the shard count,
// zero-weight regions), GLL or GLF through the registry returns a valid
// coloring byte-identical to the one the sharded solve returned.
func TestEquivalenceNoFault(t *testing.T) {
	zw := grid.MustGrid2D(16, 16) // top half zero-weight
	for v := range 8 * 16 {
		zw.Set(v%16, v/16, int64(v%3)+1)
	}
	allZero := grid.MustGrid2D(9, 9)
	instances := []struct {
		name string
		s    grid.Stencil
	}{
		{"2d-40x40", weighted2D(40, 40)},
		{"2d-strip-1x64", weighted2D(1, 64)},
		{"2d-strip-64x1", weighted2D(64, 1)},
		{"2d-tiny-3x3", weighted2D(3, 3)},
		{"2d-zero-top-half", zw},
		{"2d-all-zero-weights", allZero},
		{"3d-10x8x6", weighted3D(10, 8, 6)},
	}
	for _, tc := range instances {
		for _, shards := range []int{2, 4, 7, 16} {
			for _, ord := range []parallel.Order{parallel.OrderLine, parallel.OrderWeightDesc} {
				t.Run(fmt.Sprintf("%s/shards=%d/order=%d", tc.name, shards, ord), func(t *testing.T) {
					alg := heuristics.GLL
					if ord == parallel.OrderWeightDesc {
						alg = heuristics.GLF
					}
					got, err := heuristics.Run(alg, tc.s, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := got.Validate(tc.s.(core.Graph)); err != nil {
						t.Fatalf("%s coloring invalid: %v", alg, err)
					}
					key := fmt.Sprintf("%s/order=%d", tc.name, ord)
					want, ok := shardedHashes[key]
					if !ok {
						t.Fatalf("no recorded sharded hash for %s", key)
					}
					if h := startsHash(got); h != want {
						t.Fatalf("%s hash %016x, the sharded solve returned %016x", alg, h, want)
					}
				})
			}
		}
	}
}
