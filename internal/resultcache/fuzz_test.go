package resultcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// craftBody returns an entry body (everything before the checksum)
// whose starts vector declares n values followed by payload — framing
// encodeEntry would never produce.
func craftBody(n int64, payload []byte) []byte {
	var b bytes.Buffer
	b.Write(entryMagic)
	putString(&b, "GLL")
	putString(&b, "")
	putI64(&b, 0) // WallNanos
	putI64(&b, 0) // MaxColor
	putI64(&b, 0) // CreatedUnix
	putI64(&b, n)
	b.Write(payload)
	return b.Bytes()
}

// seal appends the trailing SHA-256 that decodeEntry verifies.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], sum[:]...)
}

// FuzzDecodeEntry hardens the persisted-entry decoder, whose input is
// whatever bytes sit in the cache directory. The target seals each
// input with its checksum so mutations reach the framing checks behind
// it. Decoding must never panic, every rejection must wrap ErrCorrupt,
// and an accepted entry must re-encode to exactly the bytes it came
// from.
func FuzzDecodeEntry(f *testing.F) {
	real := encodeEntry(testEntry())
	f.Add(real[:len(real)-sha256.Size])
	f.Add(craftBody(1<<61, nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		data := seal(body)
		e, err := decodeEntry(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if got := encodeEntry(e); !bytes.Equal(got, data) {
			t.Fatalf("accepted entry re-encodes to different bytes:\n in %x\nout %x", data, got)
		}
	})
}
