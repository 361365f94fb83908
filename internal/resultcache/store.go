package resultcache

import "stencilivc/internal/core"

// Store is the pluggable persistence tier behind the in-memory cache: a
// hash-keyed index in front of blob storage, in the smallest interface
// that shape needs. The in-memory LRU sits in front of a Store the way
// a page cache sits in front of a disk — eviction drops only the memory
// copy, the Store retains the entry, and a later Lookup re-reads (and
// re-validates) it.
//
// Implementations must be safe for concurrent use and must treat
// entries as immutable: deep-copy on Put and on Get, so neither side
// can mutate the other's slices. Get reports corruption (a torn write,
// bit rot, a failed checksum) as an error wrapping ErrCorrupt; the
// cache degrades any Get error to a miss.
//
// In-tree implementations: MemStore (map-backed, for tests and
// single-process daemons) and FileStore (one fsync'd file per entry,
// atomic write-temp-rename).
type Store interface {
	// Get returns the entry stored under key; ok is false when the key
	// is absent. An error means the entry existed but was unreadable.
	Get(key core.CacheKey) (e Entry, ok bool, err error)
	// Put stores e under key, replacing any previous entry.
	Put(key core.CacheKey, e Entry) error
	// Delete removes the entry stored under key; absent keys are a no-op.
	Delete(key core.CacheKey) error
	// Len reports how many entries the store currently holds.
	Len() int
}
