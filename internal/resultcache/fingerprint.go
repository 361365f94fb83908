package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// Fingerprint computes the canonical content address of one
// (algorithm, instance) pair. It is a two-level key: SHA-256 over the
// format version, the algorithm name, the instance's kind tag and the
// instance's own digest, each string length-framed. Equal fingerprints
// mean "a cached coloring for one is a correct coloring for the other",
// which is the whole soundness argument of the cache: the solvers are
// deterministic functions of exactly the digested state.
//
// Canonicalization rules (DESIGN.md §15 has the rationale):
//
//   - The format version leads, so "ivc-resultcache-v2" keys never meet
//     the v1 keys of the one-level encoding, and the algorithm name is
//     framed by its length, so "GLL" on grid A can never collide with
//     "GLF" on grid B.
//   - Each instance kind writes a distinct tag: a 4×6 Grid2D, the
//     equivalent 24-vertex CSRGraph, and a 4×6×1 Grid3D all key
//     differently even though they color identically (and the two grids
//     share a digest). Collapsing them would be sound for the grid/CSR
//     pair but not provable cheaply, and the tag keeps the encoding
//     injective by construction.
//   - A grid's digest is its Digest: SHA-256 over (X, Y, Z) and the
//     weight vector, computed once and kept on the grid until Set
//     clears it. The members of a portfolio on one grid therefore share
//     one pass over its weights, and a grid looked up again costs none.
//     That rests on Lattice's read-only contract: Set is a grid's one
//     write path.
//   - A CSR graph's digest covers, per vertex, the weight, the degree,
//     and the sorted adjacency run, walked on every call. NewCSRGraph
//     sorts each run at construction, so two graphs built from the same
//     edge set in different orders digest identically — construction
//     order is not content.
//   - Any other Graph implementation falls back to the same per-vertex
//     walk under its own tag; it is canonical as long as Neighbors
//     enumerates deterministically, which the Graph contract requires.
func Fingerprint(alg string, g core.Graph) core.CacheKey {
	var kind string
	var inst [sha256.Size]byte
	switch t := g.(type) {
	case *grid.Grid2D:
		kind, inst = "grid2d", t.Digest()
	case *grid.Grid3D:
		kind, inst = "grid3d", t.Digest()
	case *core.CSRGraph:
		kind, inst = "csr", walkDigest(t)
	default:
		kind, inst = "graph", walkDigest(g)
	}
	var buf [128]byte
	b := appendStr(buf[:0], "ivc-resultcache-v2")
	b = appendStr(b, alg)
	b = appendStr(b, kind)
	return sha256.Sum256(append(b, inst[:]...))
}

// appendStr appends a length-framed string, so adjacent fields can
// never shift content across their boundary ("ab"+"c" ≠ "a"+"bc").
func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// walkDigest returns SHA-256 over g's per-vertex walk.
func walkDigest(g core.Graph) [sha256.Size]byte {
	d := digester{h: sha256.New()}
	d.graph(g)
	d.flush()
	var sum [sha256.Size]byte
	d.h.Sum(sum[:0])
	return sum
}

// digester streams a graph walk into a hash through a fixed-size
// buffer, so a large graph is digested without ever materializing a
// serialized copy of it.
type digester struct {
	h   hash.Hash
	buf [4096]byte
	n   int
}

// flush drains the buffer into the hash.
func (d *digester) flush() {
	if d.n > 0 {
		d.h.Write(d.buf[:d.n])
		d.n = 0
	}
}

// i64 appends one fixed-width little-endian value.
func (d *digester) i64(v int64) {
	if d.n+8 > len(d.buf) {
		d.flush()
	}
	binary.LittleEndian.PutUint64(d.buf[d.n:], uint64(v))
	d.n += 8
}

// graph appends the generic per-vertex walk: weight, degree, and the
// neighbor list as the graph enumerates it.
func (d *digester) graph(g core.Graph) {
	n := g.Len()
	d.i64(int64(n))
	var buf []int
	for v := 0; v < n; v++ {
		d.i64(g.Weight(v))
		buf = g.Neighbors(v, buf[:0])
		d.i64(int64(len(buf)))
		for _, u := range buf {
			d.i64(int64(u))
		}
	}
}
