// Package resultcache memoizes solve results behind a canonical
// instance fingerprint: heavy service traffic is repetitive traffic,
// and interval-coloring solves (expensive by the hardness results
// around interval-constrained coloring, exactly reproducible by the
// determinism of the registry algorithms) are the ideal memoization
// target — a digest hit returns a provably identical coloring for
// free.
//
// The architecture is a hash-keyed index in front of blob storage:
//
//   - Fingerprint computes the content address, a two-level key:
//     SHA-256 over the format version, the algorithm name, the
//     instance's kind tag and the instance's own digest. A grid's digest
//     (dims plus weights) is computed once and kept on the grid until
//     Set clears it, so the members of a portfolio share one pass over
//     the weights; a CSR or generic graph is digested by its full
//     sorted walk on every call. No serialized copy of the instance is
//     ever materialized.
//   - Cache is one byte-budget LRU over decoded entries under one lock,
//     holding any entry up to its budget and implementing
//     core.SolveCache so heuristics.Run can consult it through
//     SolveOptions.Cache with a single pointer compare when disabled.
//   - Store is the pluggable persistence tier behind the LRU
//     (Get/Put/Delete/Len). MemStore is the map-backed reference
//     implementation; FileStore persists one checksummed file per entry
//     with atomic write-temp-rename and an fsync'd directory index.
//
// Key invariant: a Lookup hit is byte-identical to the coloring
// originally stored, and a corrupted persisted entry — torn write, bit
// rot, or the resultcache/get-corrupt chaos site — degrades to a miss
// and a re-solve, never to a wrong answer: persisted entries are
// checksum-verified and then re-validated against the instance before
// they are served. Per-entry Provenance (solver, VCS commit, wall time,
// maxcolor) carries the benchmark-trajectory metadata of the original
// solve into every cached result.
//
// Byte identity rests on who may write a coloring. Cache's own Lookup
// and Store deep-copy in both directions, so callers — the facade's
// ResultCache among them — may mutate what they get or gave. The view
// from Cache.Shared copies in neither direction: a hit, the solve that
// stored it and the entry are one read-only array, and its callers
// never write a coloring. The solve daemon attaches that view, because
// it only encodes starts and so holds each answer once.
package resultcache
