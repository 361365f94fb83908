package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// Fingerprint computes the canonical content address of one
// (algorithm, instance) pair: SHA-256 over a domain-separated encoding
// of the algorithm descriptor and the instance itself. Equal
// fingerprints mean "a cached coloring for one is a correct coloring
// for the other", which is the whole soundness argument of the cache:
// the solvers are deterministic functions of exactly the encoded state.
//
// Canonicalization rules (DESIGN.md §15 has the rationale):
//
//   - The encoding starts with a format version and the algorithm name,
//     both length-framed, so "GLL" on grid A can never collide with
//     "GLF" on grid B and a future encoding change invalidates every
//     old key at once.
//   - Each instance kind writes a distinct tag: a 4×6 Grid2D, the
//     equivalent 24-vertex CSRGraph, and a 4×6×1 Grid3D all encode
//     differently even though they color identically. Collapsing them
//     would be sound for the grid/CSR pair but not provable cheaply,
//     and the tag keeps the encoding injective by construction.
//   - Grids encode (X, Y[, Z]) plus the weight vector, streamed through
//     the hash in fixed-size chunks. The digest is computed on every
//     lookup: a grid keeps no digest (one that Set clears would be
//     sound, Set being the grid's one write path, but none is built
//     yet; DESIGN.md §15). No copy of the weights is ever materialized.
//   - CSR graphs encode, per vertex, the weight, the degree, and the
//     sorted adjacency run. NewCSRGraph sorts each run at construction,
//     so two graphs built from the same edge set in different orders
//     digest identically — construction order is not content.
//   - Any other Graph implementation falls back to the same per-vertex
//     walk under its own tag; it is canonical as long as Neighbors
//     enumerates deterministically, which the Graph contract requires.
func Fingerprint(alg string, g core.Graph) core.CacheKey {
	d := digester{h: sha256.New()}
	d.str("ivc-resultcache-v1")
	d.str(alg)
	switch t := g.(type) {
	case *grid.Grid2D:
		w, x, y, _ := t.Lattice()
		d.str("grid2d")
		d.i64(int64(x))
		d.i64(int64(y))
		d.weights(w)
	case *grid.Grid3D:
		w, x, y, z := t.Lattice()
		d.str("grid3d")
		d.i64(int64(x))
		d.i64(int64(y))
		d.i64(int64(z))
		d.weights(w)
	case *core.CSRGraph:
		d.str("csr")
		d.graph(t)
	default:
		d.str("graph")
		d.graph(g)
	}
	d.flush()
	var key core.CacheKey
	d.h.Sum(key[:0])
	return key
}

// digester streams the canonical encoding into a hash through a
// fixed-size buffer, so a 2048² weight vector is digested without ever
// materializing a serialized copy of the instance.
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

// str appends a length-framed string, so adjacent fields can never
// shift content across their boundary ("ab"+"c" ≠ "a"+"bc").
func (d *digester) str(s string) {
	d.i64(int64(len(s)))
	for len(s) > 0 {
		if d.n == len(d.buf) {
			d.flush()
		}
		c := copy(d.buf[d.n:], s)
		d.n += c
		s = s[c:]
	}
}

// weights appends a length-framed weight vector, filling the buffer up
// to 512 weights at a time: the bytes are exactly those of one i64 call
// per weight, without its per-value room check.
func (d *digester) weights(w []int64) {
	d.i64(int64(len(w)))
	for len(w) > 0 {
		if d.n+8 > len(d.buf) {
			d.flush()
		}
		chunk := w[:min(len(w), (len(d.buf)-d.n)/8)]
		buf := d.buf[d.n : d.n+8*len(chunk)]
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		d.n += len(buf)
		w = w[len(chunk):]
	}
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
