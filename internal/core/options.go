package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"stencilivc/internal/obsv"
)

// SolveOptions carries the cross-cutting concerns of a solve: a
// context.Context for cancellation, a parallelism knob for portfolio
// runs, and the optional observability sinks — Stats counters, the
// Metrics bundle, the runtime Sampler, and TraceCtx, under which every
// solver phase records its flight-recorder span and every solve event
// (a fallback, a partial return, a cache hit) its flight event. The
// zero value — and a nil pointer — mean "background context,
// sequential, nothing observed", so every solver accepts a nil
// *SolveOptions and never has to guard itself.
//
// Options are read-only during a solve and may be shared by concurrent
// solver goroutines; every sink is internally synchronized.
type SolveOptions struct {
	// Ctx cancels a solve in flight. Long passes (the greedy engine, the
	// BD/BDP row and recoloring loops) poll it at line/block granularity,
	// so cancellation is honored promptly even on huge grids. A nil Ctx
	// means context.Background().
	Ctx context.Context
	// Parallelism bounds the number of worker goroutines a solve may use:
	// concurrent algorithm runs in a portfolio solve, and tile workers
	// inside the tile-parallel speculative solvers (PGLL/PGLF). Values
	// < 2 (including the zero value) run sequentially. The paper's seven
	// sequential algorithms are single-threaded regardless, so for them
	// parallelism never changes the result, only the portfolio wall time;
	// the speculative solvers always return a valid coloring but their
	// maxcolor may vary slightly with worker timing.
	Parallelism int
	// Stats, when non-nil, accumulates placement and probe counts across
	// the solve.
	Stats *Stats
	// Metrics, when non-nil, receives the solver counter taxonomy
	// (vertices colored, probes, conflicts, repair rounds, occupancy-list
	// lengths, maxcolor) with lock-free increments. A nil Metrics
	// disables the counters at zero cost.
	Metrics *obsv.SolveMetrics
	// Sampler, when non-nil, is started (reference-counted) for the
	// duration of every registry-dispatched solve, bridging the Go
	// runtime's own GC-pause and scheduler-latency histograms into the
	// metrics registry while the solve runs. Overlapping solves (a
	// portfolio's members) share one sampling goroutine. A nil Sampler —
	// the default — costs one pointer compare per solve.
	Sampler *obsv.Sampler
	// Injector, when non-nil, is the fault-injection hook: instrumented
	// sites in the solve pipeline consult it and enact the faults it
	// schedules (stalls, panics, halo misreads).
	// A nil Injector — the production configuration — disables every
	// site at zero cost. See internal/chaos for the deterministic,
	// seeded implementation.
	Injector Injector
	// Cache, when non-nil, is the content-addressed result cache
	// heuristics.Run consults before dispatching an algorithm: a hit
	// returns the memoized coloring without running the solver (no solve
	// span, no solve counters — the cache records its own hit/miss
	// families), and every completed solve is stored back under its
	// instance fingerprint. A nil Cache — the default — costs one pointer
	// compare per solve and allocates nothing. Set it only to a non-nil
	// implementation: a typed-nil pointer wrapped in the interface would
	// defeat the nil check. See internal/resultcache.
	Cache SolveCache
	// Tenant names the principal this solve is running on behalf of. The
	// solvers never read it; the service layer's multi-tenant scheduler
	// sets it so fairness accounting and shed decisions attribute work
	// to the right tenant, and it rides along in the options so any
	// layer below the scheduler can tag diagnostics. Empty means the
	// anonymous default tenant.
	Tenant string
	// TraceCtx, when non-nil, is the flight-recorder trace context: the
	// trace id (minted at service admission, or by a CLI's private
	// recorder) plus the span to parent new spans under. The registry
	// dispatcher opens solve:<alg> under it and hands the solver a child
	// context, so every solver phase — BDP's decompose and post passes,
	// the tile-parallel solver's speculate/repair phases, tiles, and
	// repair rounds — records a span in the same trace, as does every
	// solve event (ivc -log streams them). A nil TraceCtx — the default —
	// costs one pointer compare per instrumented site.
	TraceCtx *obsv.TraceContext
	// PartialOnCancel makes Portfolio/Best return the best coloring of
	// the algorithms that completed before cancellation, tagged with the
	// ErrPartial sentinel, instead of discarding completed work when the
	// context expires. The returned coloring is still complete and
	// valid; only the portfolio is truncated. With no completed result,
	// cancellation errors propagate as before.
	PartialOnCancel bool
}

// Context returns the effective context: o.Ctx, or context.Background()
// when o or o.Ctx is nil.
func (o *SolveOptions) Context() context.Context {
	if o == nil || o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Err reports the context's cancellation state; nil receivers and nil
// contexts are never canceled. Solvers call this from their inner loops.
func (o *SolveOptions) Err() error {
	if o == nil || o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Par returns the effective portfolio parallelism (always >= 1).
func (o *SolveOptions) Par() int {
	if o == nil || o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Sink returns the stats sink, or nil when no receiver or no sink is
// configured. All Stats methods accept a nil receiver, so callers can
// record unconditionally: opts.Sink().AddPlacements(...).
func (o *SolveOptions) Sink() *Stats {
	if o == nil {
		return nil
	}
	return o.Stats
}

// Meters returns the solve metrics bundle, or nil when no receiver or
// no bundle is configured; all bundle metrics are nil-receiver-safe.
func (o *SolveOptions) Meters() *obsv.SolveMetrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// RuntimeSampler returns the runtime sampler, or nil when no receiver
// or no sampler is configured; all *obsv.Sampler methods are
// nil-receiver-safe.
func (o *SolveOptions) RuntimeSampler() *obsv.Sampler {
	if o == nil {
		return nil
	}
	return o.Sampler
}

// Faults returns the fault injector, or nil when no receiver or no
// injector is configured. Hot loops should cache the result once per
// solve rather than calling through the options on every iteration.
func (o *SolveOptions) Faults() Injector {
	if o == nil {
		return nil
	}
	return o.Injector
}

// Fault reports whether the named injection site fires at this visit;
// with no injector configured it is a single nil check. Instrumented
// code outside hot loops can call it directly:
//
//	if opts.Fault("bdp/post-drop") { ... }
func (o *SolveOptions) Fault(site FaultSite) bool {
	if o == nil || o.Injector == nil {
		return false
	}
	return o.Injector.Inject(site)
}

// FlightCtx returns the flight-recorder trace context, or nil when no
// receiver or no context is configured; all *obsv.TraceContext methods
// are nil-receiver-safe, so solvers open their phases unconditionally:
//
//	sp := opts.FlightCtx().Start("BDP/post")
//	defer sp.End()
//
// Untraced, that is one pointer compare returning the inert zero span.
func (o *SolveOptions) FlightCtx() *obsv.TraceContext {
	if o == nil {
		return nil
	}
	return o.TraceCtx
}

// ResultCache returns the solve-result cache, or nil when no receiver
// or no cache is configured — a single pointer compare, so the uncached
// path costs nothing.
func (o *SolveOptions) ResultCache() SolveCache {
	if o == nil {
		return nil
	}
	return o.Cache
}

// Partial reports whether the caller asked for best-so-far results on
// cancellation (PartialOnCancel); nil receivers report false.
func (o *SolveOptions) Partial() bool {
	return o != nil && o.PartialOnCancel
}

// TenantID returns the effective tenant: o.Tenant, or "default" when no
// receiver or no tenant is set, so accounting maps never key on "".
func (o *SolveOptions) TenantID() string {
	if o == nil || o.Tenant == "" {
		return "default"
	}
	return o.Tenant
}

// CtxCheckInterval is the granularity at which per-vertex solver loops
// poll for cancellation: every this-many placements (roughly one grid
// line). Block- and row-structured loops poll once per block or row
// instead.
const CtxCheckInterval = 1024

// Stats accumulates counters describing the work a solve performed. All
// methods are safe for concurrent use (portfolio runs share one sink
// across goroutines) and accept a nil receiver as a no-op, so solver
// code never branches on whether stats are enabled.
//
// Per-phase wall times are spans, not stats: attach a TraceCtx and read
// the flight recorder.
type Stats struct {
	placements atomic.Int64
	probes     atomic.Int64
}

// AddPlacements records n vertex placements.
func (s *Stats) AddPlacements(n int64) {
	if s == nil {
		return
	}
	s.placements.Add(n)
}

// AddProbes records n neighbor-interval probes (intervals examined by
// the lowest-fit engine).
func (s *Stats) AddProbes(n int64) {
	if s == nil {
		return
	}
	s.probes.Add(n)
}

// Placements returns the number of vertex placements recorded.
func (s *Stats) Placements() int64 {
	if s == nil {
		return 0
	}
	return s.placements.Load()
}

// Probes returns the number of neighbor-interval probes recorded.
func (s *Stats) Probes() int64 {
	if s == nil {
		return 0
	}
	return s.probes.Load()
}

// String renders the counters as one line.
func (s *Stats) String() string {
	if s == nil {
		return "stats: (disabled)"
	}
	return fmt.Sprintf("stats: placements=%d probes=%d", s.Placements(), s.Probes())
}
