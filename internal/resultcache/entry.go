package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"stencilivc/internal/core"
)

// Provenance is the trajectory metadata kept with every cached
// coloring, so a hit can be traced back to the solve that produced it —
// the same commit/solver/wall-time triple cmd/ivcbench stamps into
// bench reports survives into cached results.
type Provenance struct {
	// Solver is the registry algorithm that produced the coloring.
	Solver string
	// Commit is the VCS revision of the binary that solved it (from
	// debug.ReadBuildInfo; empty when the build carries no VCS stamp).
	Commit string
	// WallNanos is the measured wall time of the original solve.
	WallNanos int64
	// MaxColor is the coloring's maxcolor, kept so operators can read
	// result quality off a cache listing without re-deriving it.
	MaxColor int64
	// CreatedUnix is when the entry was stored (Unix seconds).
	CreatedUnix int64
}

// Entry is one cached solve result: the per-vertex interval starts plus
// provenance. Entries are treated as immutable once handed to a Store;
// implementations and callers deep-copy on both sides of the interface.
type Entry struct {
	// Starts is the per-vertex interval start vector (core.Coloring.Start).
	Starts []int64
	// Prov records where the coloring came from.
	Prov Provenance
}

// memBytes is the in-memory footprint charged against the cache's byte
// budget: the payload plus a flat allowance for the strings, the map
// slot, and the LRU node.
func (e *Entry) memBytes() int64 {
	return int64(len(e.Starts))*8 + int64(len(e.Prov.Solver)) +
		int64(len(e.Prov.Commit)) + entryOverheadBytes
}

// entryOverheadBytes is the flat per-entry bookkeeping allowance.
const entryOverheadBytes = 160

// ErrCorrupt is wrapped by every decode, checksum, or framing failure
// of a persisted entry. The cache treats any Get error as a miss — a
// corrupted persisted entry degrades to a re-solve, never to a wrong
// answer — but callers can still errors.Is for this sentinel to tell
// corruption from I/O failures.
var ErrCorrupt = errors.New("resultcache: corrupt entry")

// entryMagic heads every encoded entry; a version bump invalidates old
// files at decode instead of misreading them.
var entryMagic = []byte("IVCRC1\x00\x00")

// maxEncodedString bounds the solver/commit fields at decode, so a
// corrupted length prefix cannot drive a huge allocation.
const maxEncodedString = 1 << 12

// encodeEntry renders e in the persisted wire format: magic, the
// length-framed provenance strings, the fixed provenance scalars, the
// length-framed starts vector, and a trailing SHA-256 of everything
// before it. The checksum is what lets a Store detect torn or bit-rotted
// payloads instead of serving them.
func encodeEntry(e Entry) []byte {
	var b bytes.Buffer
	b.Grow(len(entryMagic) + len(e.Prov.Solver) + len(e.Prov.Commit) +
		8*6 + len(e.Starts)*8 + sha256.Size)
	b.Write(entryMagic)
	putString(&b, e.Prov.Solver)
	putString(&b, e.Prov.Commit)
	putI64(&b, e.Prov.WallNanos)
	putI64(&b, e.Prov.MaxColor)
	putI64(&b, e.Prov.CreatedUnix)
	putI64(&b, int64(len(e.Starts)))
	for _, s := range e.Starts {
		putI64(&b, s)
	}
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// decodeEntry parses the persisted wire format, verifying the magic,
// the framing, and the trailing checksum; every failure wraps
// ErrCorrupt.
func decodeEntry(data []byte) (Entry, error) {
	if len(data) < len(entryMagic)+sha256.Size {
		return Entry{}, fmt.Errorf("%w: %d bytes is shorter than the framing", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return Entry{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if !bytes.HasPrefix(body, entryMagic) {
		return Entry{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := body[len(entryMagic):]
	var e Entry
	var err error
	if e.Prov.Solver, r, err = getString(r); err != nil {
		return Entry{}, err
	}
	if e.Prov.Commit, r, err = getString(r); err != nil {
		return Entry{}, err
	}
	if e.Prov.WallNanos, r, err = getI64(r); err != nil {
		return Entry{}, err
	}
	if e.Prov.MaxColor, r, err = getI64(r); err != nil {
		return Entry{}, err
	}
	if e.Prov.CreatedUnix, r, err = getI64(r); err != nil {
		return Entry{}, err
	}
	n, r, err := getI64(r)
	if err != nil {
		return Entry{}, err
	}
	// Compare against len(r)/8 rather than n*8: a crafted n near 2^61
	// wraps n*8 onto len(r) and would reach make with an absurd length.
	if len(r)%8 != 0 || n != int64(len(r)/8) {
		return Entry{}, fmt.Errorf("%w: starts framing (%d declared, %d bytes left)", ErrCorrupt, n, len(r))
	}
	e.Starts = make([]int64, n)
	for i := range e.Starts {
		e.Starts[i] = int64(binary.LittleEndian.Uint64(r[i*8:]))
	}
	return e, nil
}

// putI64 appends one fixed-width little-endian value.
func putI64(b *bytes.Buffer, v int64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	b.Write(tmp[:])
}

// putString appends a length-framed string.
func putString(b *bytes.Buffer, s string) {
	putI64(b, int64(len(s)))
	b.WriteString(s)
}

// getI64 consumes one fixed-width value.
func getI64(r []byte) (int64, []byte, error) {
	if len(r) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated scalar", ErrCorrupt)
	}
	return int64(binary.LittleEndian.Uint64(r)), r[8:], nil
}

// getString consumes one length-framed string.
func getString(r []byte) (string, []byte, error) {
	n, r, err := getI64(r)
	if err != nil {
		return "", nil, err
	}
	if n < 0 || n > maxEncodedString || int64(len(r)) < n {
		return "", nil, fmt.Errorf("%w: string framing (%d declared, %d bytes left)", ErrCorrupt, n, len(r))
	}
	return string(r[:n]), r[n:], nil
}

// validate checks a (possibly persisted) entry against the instance it
// claims to color: the vector length must match and the coloring must
// pass full interval validation. This is the cache's last line of
// defense — even a checksum-passing entry (or an injected corruption
// that preserved the checksum) can never leave Lookup as an invalid
// answer, because an entry that fails here is discarded as a miss.
func (e *Entry) validate(g core.Graph) error {
	if len(e.Starts) != g.Len() {
		return fmt.Errorf("%w: entry colors %d vertices, instance has %d",
			ErrCorrupt, len(e.Starts), g.Len())
	}
	c := core.Coloring{Start: e.Starts}
	if err := c.Validate(g); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}
