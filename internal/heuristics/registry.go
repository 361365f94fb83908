package heuristics

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// DimMask says which grid dimensionalities an algorithm accepts.
type DimMask uint8

// The dimensionality bits.
const (
	Dim2D DimMask = 1 << iota // 9-pt stencils
	Dim3D                     // 27-pt stencils

	DimBoth = Dim2D | Dim3D
)

// Has reports whether the mask covers dims-dimensional instances.
func (m DimMask) Has(dims int) bool {
	switch dims {
	case 2:
		return m&Dim2D != 0
	case 3:
		return m&Dim3D != 0
	}
	return false
}

// String renders the mask as "2D", "3D", or "2D/3D".
func (m DimMask) String() string {
	switch m {
	case Dim2D:
		return "2D"
	case Dim3D:
		return "3D"
	case DimBoth:
		return "2D/3D"
	}
	return fmt.Sprintf("DimMask(%d)", uint8(m))
}

// SolveFunc is the uniform signature every registered algorithm exposes:
// a dimension-generic stencil instance plus the solve options (context,
// stats). Implementations type-switch to *grid.Grid2D / *grid.Grid3D when
// they are structurally per-dimension (BD's rows, BDL's layers) and are
// only ever called with an instance their DimMask accepts.
type SolveFunc func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error)

// Descriptor is one registry entry: a named algorithm, the dimensions it
// supports, whether it belongs to the paper's seven-algorithm evaluation
// set, its position in the paper's presentation order, and its solver.
type Descriptor struct {
	// Name is the registry key.
	Name Algorithm
	// Dims is the set of supported dimensionalities.
	Dims DimMask
	// Paper marks the algorithms of the paper's evaluation matrix; All()
	// returns exactly these. Extensions (BDL) register with Paper=false.
	Paper bool
	// Order sorts the paper set into the paper's presentation order and
	// breaks portfolio ties deterministically; lower runs/wins first.
	Order int
	// Fn runs the algorithm.
	Fn SolveFunc
}

// registry is the process-wide algorithm table. Algorithms self-register
// from init() in the file that implements them, so the table — not a
// switch statement — is the single source of dispatch truth for Run2D,
// Run3D, All(), the portfolio runner, and the cmd tools.
var registry = struct {
	mu     sync.RWMutex
	byName map[Algorithm]Descriptor
}{byName: map[Algorithm]Descriptor{}}

// Register adds an algorithm to the registry. It rejects empty names,
// nil solvers, empty dimension masks, and duplicate names.
func Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("heuristics: register: empty algorithm name")
	}
	if d.Fn == nil {
		return fmt.Errorf("heuristics: register %q: nil solve func", d.Name)
	}
	if d.Dims&DimBoth == 0 {
		return fmt.Errorf("heuristics: register %q: empty dimension mask", d.Name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[d.Name]; dup {
		return fmt.Errorf("heuristics: register %q: already registered", d.Name)
	}
	registry.byName[d.Name] = d
	return nil
}

// MustRegister is Register that panics on error; for init()-time
// registration where a failure is a programming error.
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the descriptor registered under name.
func Lookup(name Algorithm) (Descriptor, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	d, ok := registry.byName[name]
	return d, ok
}

// Descriptors returns every registered algorithm (paper set and
// extensions) sorted by paper order, then name.
func Descriptors() []Descriptor {
	registry.mu.RLock()
	out := make([]Descriptor, 0, len(registry.byName))
	for _, d := range registry.byName {
		out = append(out, d)
	}
	registry.mu.RUnlock()
	slices.SortFunc(out, func(a, b Descriptor) int {
		if c := cmp.Compare(a.Order, b.Order); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return out
}

// All returns the paper's algorithms in the paper's presentation order
// (GLL, GZO, GLF, GKF, SGK, BD, BDP). Extensions beyond the paper (BDL)
// are registered but excluded, so the evaluation matrix stays the
// paper's seven.
func All() []Algorithm {
	var out []Algorithm
	for _, d := range Descriptors() {
		if d.Paper {
			out = append(out, d.Name)
		}
	}
	return out
}

// Run executes the named algorithm on a stencil instance of either
// dimensionality. It is the single dispatch path: unknown names and
// dimension mismatches error, per-algorithm errors (cancellation, failed
// decompositions) propagate instead of being discarded, and every
// configured observability sink records here — a "solve:<name>" span
// opens under SolveOptions.TraceCtx (ending with the maxcolor as its
// arg, or the error as its detail) and the solver runs under its child
// context, so the solver's own phases nest beneath it; the metrics
// bundle receives the solve count, wall time, allocations, and
// resulting maxcolor, the event sink logs solve.start and
// solve.finish/solve.error records, and the runtime sampler — when
// configured — runs for the duration of the solve so GC pauses and
// scheduler stalls during it land in the registry. The options are
// copied only when the span is active, so untraced options cost no more
// than nil options.
//
// When SolveOptions.Cache is set, Run first consults the
// content-addressed result cache: a hit returns the memoized coloring
// immediately — no solver span, no solve counters, no sampler session;
// the cache's own resultcache_* families and cache.* events record the
// hit — and every completed solve is stored back under its instance
// fingerprint. A nil cache costs one pointer compare.
//
// Run is also the pipeline's panic boundary: a panic anywhere inside
// the algorithm (a solver bug, or a fault injector's induced crash that
// escaped the solver's own containment) is recovered into a typed
// *core.SolveError carrying the algorithm name — and, for injected
// panics, the fault site — so one crashing algorithm degrades a
// portfolio instead of killing the process.
func Run(alg Algorithm, s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
	d, ok := Lookup(alg)
	if !ok {
		return core.Coloring{}, fmt.Errorf("heuristics: unknown algorithm %q", alg)
	}
	if !d.Dims.Has(s.Dims()) {
		return core.Coloring{}, fmt.Errorf("heuristics: %s is %s-only, got a %dD instance",
			alg, d.Dims, s.Dims())
	}
	// A per-request absolute deadline (the service scheduler's shedding
	// policy, or any caller that set SolveOptions.Deadline) bounds the
	// context here, so every solver below polls the bounded context
	// without knowing deadlines exist. No deadline costs one IsZero check.
	opts, stopDeadline := opts.WithDeadlineContext()
	defer stopDeadline()
	if err := opts.Err(); err != nil {
		return core.Coloring{}, err
	}
	// The content-addressed result cache short-circuits the whole solve:
	// a hit returns the memoized coloring with no solver span, no solve
	// counters, and no sampler session — the cache records its own
	// hit/miss/store families. The nil-cache path is one pointer compare
	// (pinned allocation-free by TestNilCacheLookupNoAllocs).
	cached, ckey, cacheHit := lookupCached(opts.ResultCache(), alg, s, opts)
	if cacheHit {
		opts.FlightCtx().Event("cache.hit", string(alg), 0)
		return cached, nil
	}
	// The allocation count brackets everything a metered miss does, from
	// here to the cache store.
	m := opts.Meters()
	var mallocs0 uint64
	if m != nil {
		mallocs0 = readMallocs()
	}
	if sampler := opts.RuntimeSampler(); sampler != nil {
		sampler.Start()
		defer sampler.Stop()
	}
	fs := startFlight(opts, "solve:"+string(alg))
	ev := opts.EventLog()
	ev.SolveStart(string(alg), s.Dims(), s.Len())
	t0 := time.Now()
	runOpts := opts
	if fs.Active() {
		// Solver-internal phases parent under the solve span, not the
		// caller's span.
		o := *opts
		o.TraceCtx = fs.Context()
		runOpts = &o
	}
	c, err := contained(d, s, runOpts)
	dt := time.Since(t0)
	if err != nil {
		fs.EndDetail(err.Error(), 0)
		ev.SolveFinish(string(alg), 0, dt, err)
		var se *core.SolveError
		if errors.As(err, &se) {
			// Already typed with the algorithm name; don't re-wrap.
			return core.Coloring{}, err
		}
		return core.Coloring{}, fmt.Errorf("heuristics: %s: %w", alg, err)
	}
	if m != nil || ev != nil || fs.Active() {
		mc := c.MaxColor(s)
		fs.EndDetail("", mc)
		ev.SolveFinish(string(alg), mc, dt, nil)
		if m != nil {
			m.Solves.Add(1)
			m.SolveSeconds.Observe(dt.Seconds())
			m.Allocs.Add(int64(readMallocs() - mallocs0))
			m.MaxColor.Set(mc)
		}
	}
	if cc := opts.ResultCache(); cc != nil {
		// Only complete, error-free solves are memoized; partial results
		// and typed failures never enter the cache. The key was computed
		// by the miss above, so the instance is not re-fingerprinted.
		cc.Store(ckey, string(alg), opts.TenantID(), s, c, dt)
	}
	return c, nil
}

// startFlight opens the solve's span in the flight recorder when a
// trace context rides in the options. It is a separate function so the
// disabled path — a nil context yielding the zero (inactive) FlightSpan
// — can be pinned allocation-free in isolation.
func startFlight(opts *core.SolveOptions, name string) obsv.FlightSpan {
	return opts.FlightCtx().Start(name)
}

// lookupCached consults the result cache when one is configured. It is
// a separate function so the disabled path — by far the common one —
// can be pinned allocation-free in isolation: with a nil cache it is a
// single comparison and returns zero values.
func lookupCached(cc core.SolveCache, alg Algorithm, s grid.Stencil, opts *core.SolveOptions) (core.Coloring, core.CacheKey, bool) {
	if cc == nil {
		return core.Coloring{}, core.CacheKey{}, false
	}
	return cc.Lookup(string(alg), s, opts.TenantID())
}

// contained invokes the algorithm's solver under a recover that
// converts panics into typed errors and counts them in the
// panic-recovery metric. It is a separate function so the deferred
// recover scopes exactly the solver call.
func contained(d Descriptor, s grid.Stencil, opts *core.SolveOptions) (c core.Coloring, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = core.PanicToError(string(d.Name), rec)
			c = core.Coloring{}
			if m := opts.Meters(); m != nil {
				m.PanicsRecovered.Add(1)
			}
		}
	}()
	return d.Fn(s, opts)
}

// readMallocs snapshots the process's cumulative heap allocation count;
// Run charges the delta across a solve to the metrics bundle. Only
// called when metrics are enabled — ReadMemStats is far too heavy for
// an always-on path.
func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Run2D executes the named algorithm on a 9-pt stencil instance.
func Run2D(alg Algorithm, g *grid.Grid2D) (core.Coloring, error) {
	return Run(alg, g, nil)
}

// Run3D executes the named algorithm on a 27-pt stencil instance.
func Run3D(alg Algorithm, g *grid.Grid3D) (core.Coloring, error) {
	return Run(alg, g, nil)
}
