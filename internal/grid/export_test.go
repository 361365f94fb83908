package grid

import (
	"crypto/sha256"
	"sync/atomic"
	"testing"
)

// CountHashes makes each pass Digest takes over a grid's weights add
// one to the returned counter, until the test ends.
func CountHashes(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	prev := hashLattice
	hashLattice = func(l *lattice) [sha256.Size]byte {
		n.Add(1)
		return prev(l)
	}
	t.Cleanup(func() { hashLattice = prev })
	return &n
}
