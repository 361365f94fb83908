package resultcache

import (
	"sync"

	"stencilivc/internal/core"
)

// MemStore is the map-backed reference Store: the persistence-tier
// semantics with no infrastructure, for tests and single-process
// daemons. It honors the full Store contract (deep copies on both sides
// of the interface, safety for concurrent use); what it cannot provide
// is durability, which is FileStore's job. The zero value is not
// usable; build one with NewMemStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[core.CacheKey]Entry
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty, unbounded store.
func NewMemStore() *MemStore {
	return &MemStore{m: map[core.CacheKey]Entry{}}
}

// Get returns a deep copy of the entry stored under key.
func (s *MemStore) Get(key core.CacheKey) (Entry, bool, error) {
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return Entry{}, false, nil
	}
	e.Starts = append([]int64(nil), e.Starts...)
	return e, true, nil
}

// Put stores a deep copy of e under key.
func (s *MemStore) Put(key core.CacheKey, e Entry) error {
	e.Starts = append([]int64(nil), e.Starts...)
	s.mu.Lock()
	s.m[key] = e
	s.mu.Unlock()
	return nil
}

// Delete removes the entry stored under key.
func (s *MemStore) Delete(key core.CacheKey) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}

// Len reports the number of stored entries.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
