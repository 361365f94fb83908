package resultcache

import (
	"testing"

	"stencilivc/internal/core"
)

func TestMemstoreRoundtripAndIsolation(t *testing.T) {
	s := NewMemStore()
	var key core.CacheKey
	key[0] = 7

	e := Entry{Starts: []int64{1, 2, 3}}
	if err := s.Put(key, e); err != nil {
		t.Fatal(err)
	}
	// Put must have copied: mutating the caller's slice is invisible.
	e.Starts[0] = 99

	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got.Starts[0] != 1 {
		t.Fatal("Put did not deep-copy the entry")
	}
	// Get must also copy: mutating the returned slice is invisible.
	got.Starts[1] = 99
	again, _, _ := s.Get(key)
	if again.Starts[1] != 2 {
		t.Fatal("Get did not deep-copy the entry")
	}

	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("entry survived delete")
	}
}
