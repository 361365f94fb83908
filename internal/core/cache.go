package core

import (
	"encoding/hex"
	"time"
)

// CacheKey is the canonical content address of one (algorithm, instance)
// pair: a SHA-256 digest over the algorithm descriptor and a canonical
// encoding of the instance (stencil kind, dimensions, and the weight
// vector — or the full CSR structure for general graphs). Two keys are
// equal exactly when a cached coloring for one is a correct answer for
// the other, which is what makes the digest safe to use as a memoization
// key: solves are deterministic per algorithm, so a key hit returns a
// coloring the solver itself would have produced.
//
// The digest is computed by internal/resultcache.Fingerprint; core only
// defines the type so SolveOptions can carry a cache hook without
// importing the cache implementation.
type CacheKey [32]byte

// String renders the key as lowercase hex — the form used in event
// logs and as the file-store entry name.
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// SolveCache is the content-addressed result-cache hook consulted by
// heuristics.Run. A nil SolveOptions.Cache — the default — costs one
// pointer compare per solve and allocates nothing.
//
// Lookup fingerprints (alg, g) and returns a cached coloring when one
// exists; a hit is byte-identical to the coloring originally stored.
// The key is returned on hit and miss alike so the caller can Store a
// fresh solve without re-fingerprinting the instance. Implementations
// must be safe for concurrent use — portfolio members and service
// workers call Lookup concurrently.
//
// Store records a completed solve under the key Lookup returned, along
// with the provenance the cache keeps per entry (solver name, wall
// time). The caller hands over the live result it is about to return
// to its own caller.
//
// Whether a coloring is copied as it crosses the cache — out of Lookup,
// into Store — is part of each implementation's documented contract,
// since heuristics.Run passes colorings through unchanged. Copying in
// both directions lets callers mutate freely (resultcache.Cache, the
// facade's ResultCache); sharing holds an answer once, and binds every
// caller never to write a coloring it got from or gave to the cache
// (resultcache.Cache.Shared, the solve daemon's view).
//
// Implementations never return a coloring that fails Validate against
// g — a corrupted persisted entry degrades to a miss (a re-solve),
// never to a wrong answer.
type SolveCache interface {
	// Lookup reports a cached coloring for (alg, g), attributing the
	// hit or miss to tenant, plus the instance key for a later Store.
	Lookup(alg string, g Graph, tenant string) (Coloring, CacheKey, bool)
	// Store records a completed solve of (alg, g) under key; wall is the
	// solve's measured wall time, kept as provenance.
	Store(key CacheKey, alg, tenant string, g Graph, c Coloring, wall time.Duration)
}
