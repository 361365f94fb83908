package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"unsafe"
)

// keptDigest holds a lattice's Digest between writes. The mutex makes
// concurrent first calls share one pass over the weights: a portfolio's
// members look the same grid up from several goroutines.
type keptDigest struct {
	mu  sync.Mutex
	ok  bool
	sum [sha256.Size]byte
}

// Digest returns SHA-256 over the grid's extents X, Y and Z and then
// its weights, each a little-endian int64: the instance half of a
// result-cache key. It is computed on the first call and kept until Set
// changes a weight, so a grid looked up again costs no pass over its
// weights. Concurrent calls are safe; like every read of the grid, a
// call must not run concurrently with Set.
func (l *lattice) Digest() [sha256.Size]byte {
	l.digest.mu.Lock()
	defer l.digest.mu.Unlock()
	if !l.digest.ok {
		l.digest.sum = hashLattice(l)
		l.digest.ok = true
	}
	return l.digest.sum
}

// set replaces the weight of vertex id through the weight store and
// drops the kept digest: the one write path after construction.
func (l *lattice) set(id int, w int64) {
	l.weightStore.set(id, w)
	l.digest.ok = false
}

// hashLattice is the pass over a lattice's weights behind Digest, held
// in a variable so a test can count the passes.
var hashLattice = sumLattice

// sumLattice hashes l's extents and weights.
func sumLattice(l *lattice) [sha256.Size]byte {
	h := sha256.New()
	var head [24]byte
	binary.LittleEndian.PutUint64(head[0:], uint64(l.x))
	binary.LittleEndian.PutUint64(head[8:], uint64(l.y))
	binary.LittleEndian.PutUint64(head[16:], uint64(l.z))
	h.Write(head[:])
	writeWeights(h, l.w)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// littleEndian reports whether the host lays an int64 out in the byte
// order the digest encodes it in.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// writeWeights writes w to h as little-endian int64s: on a
// little-endian host the slice's own bytes in one Write, elsewhere
// through encodeWeights.
func writeWeights(h hash.Hash, w []int64) {
	if littleEndian && len(w) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w)))
		return
	}
	encodeWeights(h, w)
}

// encodeWeights writes w to h as little-endian int64s, encoding up to
// 512 weights at a time into a fixed buffer: the portable path of
// writeWeights and the reference its native path is tested against.
func encodeWeights(h hash.Hash, w []int64) {
	var buf [4096]byte
	for len(w) > 0 {
		chunk := w[:min(len(w), len(buf)/8)]
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:8*len(chunk)])
		w = w[len(chunk):]
	}
}
