package parallel

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/order"
)

// The fault-injection sites of the tile-parallel solver, consulted via
// core.SolveOptions.Injector (nil in production, so every site is a
// single cached-pointer nil check). See internal/chaos for schedules.
const (
	// SiteWorkerStall fires once per tile at the start of speculative
	// coloring; a chaos injector sleeps inside Inject to model a stalled
	// worker, maximally skewing cross-tile halo read timing.
	SiteWorkerStall = core.FaultSite("pgreedy/worker-stall")
	// SiteWorkerPanic fires once per tile task of the speculative
	// phase; a chaos injector panics with core.InjectedPanic to model a
	// crashing worker. The solver recovers the panic into a typed
	// core.SolveError and falls back to the guaranteed sequential path.
	SiteWorkerPanic = core.FaultSite("pgreedy/worker-panic")
	// SiteHaloRead fires once per speculative placement; when it fires
	// the placement ignores every cross-tile neighbor — a forced halo
	// misread. The conflicts it plants must be found and repaired by the
	// detect/recolor fixpoint.
	SiteHaloRead = core.FaultSite("pgreedy/halo-read")
)

func init() {
	core.RegisterFaultSite(SiteWorkerStall,
		"tile-parallel speculation, once per tile: a Stalling rule sleeps the worker, skewing halo read timing")
	core.RegisterFaultSite(SiteWorkerPanic,
		"tile-parallel speculation, once per tile: a Panicking rule crashes the worker; recovered into the sequential fallback")
	core.RegisterFaultSite(SiteHaloRead,
		"per speculative placement: firing blinds the placement to cross-tile neighbors (forced halo misread)")
}

// Order selects the tile-local visit order of the speculative phase.
type Order int

// The tile-local orders mirroring the paper's greedy orderings.
const (
	// OrderLine visits each tile's cells line by line (tile-local GLL).
	OrderLine Order = iota
	// OrderWeightDesc visits each tile's cells by non-increasing weight,
	// ties by vertex id (tile-local GLF).
	OrderWeightDesc
)

// Default tile edge lengths: a 64×64 2D tile (4096 cells) and a 16³ 3D
// brick (4096 cells) keep a tile's weights, starts, and halo inside the
// L1/L2 working set while leaving thousands of tiles of parallel slack
// on the benchmark grids.
const (
	DefaultTileSize2D = 64
	DefaultTileSize3D = 16
)

// Config tunes the tile-parallel solver. The zero value is a valid
// default configuration.
type Config struct {
	// TileSize is the tile edge length in cells; <= 0 picks
	// DefaultTileSize2D / DefaultTileSize3D by dimensionality.
	TileSize int
	// Order is the tile-local visit order.
	Order Order
	// SpeculateBlind makes the speculative phase ignore cross-tile
	// neighbors entirely instead of reading their current state. Every
	// halo conflict is then found by the detection sweep and resolved by
	// the repair pass, which makes the whole solve deterministic
	// regardless of worker timing — and maximally stresses the repair.
	// Tests and the fuzz target rely on it; production solves are faster
	// with optimistic reads.
	SpeculateBlind bool
}

// Greedy colors s with the tile-parallel speculative greedy solver,
// running up to opts.Parallelism tile workers. The returned coloring is
// always complete and valid: the solver only returns once the
// conflict-detection sweep reaches a fixpoint (zero cross-tile
// conflicts); intra-tile edges are valid by construction.
//
// With Parallelism <= 1 the speculative phase degenerates to a
// deterministic sequential tile sweep; with more workers the final
// coloring remains valid on every run but its maxcolor may vary slightly
// with scheduling, because optimistic halo reads depend on tile timing.
//
// Greedy is panic-contained: a worker panic (induced by a fault
// injector or a genuine bug) is recovered into a typed *core.SolveError
// and the solve falls back to the guaranteed sequential greedy over the
// whole instance — the uninstrumented bedrock of the degradation
// ladder, traced as a pgreedy/seq-fallback span whose detail is the
// panic — so a crashing worker degrades latency, never correctness.
// Cancellation is never masked by the fallback: a canceled context
// propagates as the context's error.
func Greedy(s grid.Stencil, cfg Config, opts *core.SolveOptions) (core.Coloring, error) {
	c, err := speculative(s, cfg, opts)
	if err == nil {
		return c, nil
	}
	var se *core.SolveError
	if !errors.As(err, &se) || !se.Panicked {
		// Ordinary errors (cancellation, invalid tiling) propagate; only
		// recovered panics degrade to the sequential bedrock.
		return core.Coloring{}, err
	}
	if m := opts.Meters(); m != nil {
		m.Fallbacks.Add(1)
	}
	defer opts.FlightCtx().Start("pgreedy/seq-fallback").EndDetail("worker panic: "+se.Error(), 0)
	return core.GreedyColorOpts(s, fallbackOrder(s, cfg), opts)
}

// fallbackOrder is the sequential visit order matching the tile-local
// order of the degraded parallel solve, so the fallback result stays in
// the same algorithm family (PGLL falls back to GLL's line order, PGLF
// to GLF's weight order).
func fallbackOrder(s grid.Stencil, cfg Config) []int {
	if cfg.Order == OrderWeightDesc {
		return order.ByWeightDesc(s)
	}
	return s.LineOrder()
}

// speculative runs the speculate/repair pipeline, containing
// worker panics as typed errors for Greedy to act on. When tracing, the
// pgreedy/speculate span's arg is the tile count.
func speculative(s grid.Stencil, cfg Config, opts *core.SolveOptions) (core.Coloring, error) {
	size := cfg.TileSize
	if size <= 0 {
		if s.Dims() == 3 {
			size = DefaultTileSize3D
		} else {
			size = DefaultTileSize2D
		}
	}
	tl, err := s.Tiling(size)
	if err != nil {
		return core.Coloring{}, err
	}
	r := newRun(s, tl, cfg, opts)
	defer r.flush()

	sp := opts.FlightCtx().Start("pgreedy/speculate")
	err = r.speculate(sp.Context())
	sp.EndDetail("", int64(len(tl.Tiles)))
	if err != nil {
		return core.Coloring{}, err
	}
	sp = opts.FlightCtx().Start("pgreedy/repair")
	err = r.fixpoint(sp.Context())
	sp.End()
	if err != nil {
		return core.Coloring{}, err
	}
	return r.c, nil
}

// run holds the shared state of one solve and owns everything the solve
// allocates; nothing outlives it.
type run struct {
	s    grid.Stencil
	tl   *grid.Tiling
	cfg  Config
	opts *core.SolveOptions
	// inj caches opts.Faults() so the per-placement injection checks are
	// a single pointer compare on the production (nil) path.
	inj core.Injector
	c   core.Coloring
	par int
	// fit is bound to s once per solve; worker kernels copy its binding.
	fit core.FitScratch
	// workers holds one scratch per worker slot: forEach's worker k uses
	// workers[k], and workers[0] also serves the coordinator (par <= 1
	// and the repair pass).
	workers []scratch
	// queues are the work-stealing deques, one per worker when par > 1.
	queues []wsRange
	// losers holds the conflict losers of the last detection sweep, tile
	// i's in losers[loserOff[i]:loserEnd[i]]. A tile's span is as long as
	// its low-face cell list, the most it can lose, so the workers of a
	// detection sweep write disjoint spans.
	losers             []int
	loserOff, loserEnd []int
}

// scratch is the per-worker state: the placement kernel with its
// fixed-size neighbor and occupancy arrays and its tallies, a tile's
// vertex buffer, and the worker's steal count.
type scratch struct {
	fit   core.FitScratch
	verts []int
	// steals counts tile-range steals this worker performed; flushed
	// into the Steals metric alongside the placement tallies.
	steals int64
}

// newRun sets up a solve of s over the tiling tl: the coloring, each
// tile's loser span, and a kernel bound once and shared by every
// worker's scratch (BindAs) instead of rescanning the weights.
func newRun(s grid.Stencil, tl *grid.Tiling, cfg Config, opts *core.SolveOptions) *run {
	par := min(opts.Par(), len(tl.Tiles))
	r := &run{
		s: s, tl: tl, cfg: cfg, opts: opts,
		inj:      opts.Faults(),
		c:        core.NewColoring(s.Len()),
		par:      par,
		workers:  make([]scratch, max(par, 1)),
		loserOff: make([]int, len(tl.Tiles)),
		loserEnd: make([]int, len(tl.Tiles)),
	}
	if par > 1 {
		r.queues = make([]wsRange, par)
	}
	off := 0
	for i, t := range tl.Tiles {
		r.loserOff[i] = off
		off += tl.LowFaceLen(t)
	}
	r.losers = make([]int, off)
	r.fit.Bind(s)
	for k := range r.workers {
		r.workers[k].fit.BindAs(&r.fit)
	}
	return r
}

// flush hands every worker's placement tallies and steal count to the
// solve's sinks; the solve calls it once, when it returns.
func (r *run) flush() {
	var steals int64
	for k := range r.workers {
		r.workers[k].fit.Flush(r.opts)
		steals += r.workers[k].steals
	}
	if m := r.opts.Meters(); m != nil {
		m.Steals.Add(steals)
	}
}

// Visibility modes of a placement: which neighbors it is allowed to
// observe.
const (
	// readAll observes every neighbor's current (atomic) state: the
	// optimistic speculative phase and the repair pass.
	readAll = iota
	// blindCross ignores cross-tile neighbors entirely
	// (Config.SpeculateBlind's speculative phase).
	blindCross
)

// place computes the lowest-fit start of v against the shared state
// (the kernel reads neighbor starts atomically and treats Unset as
// free). t is v's tile: blindCross drops the cross-tile neighbors from
// the kernel's list before it gathers, telling them from v's tile-mates
// by the faces of t that v lies on. readAll places against every
// neighbor with no list, reads no tile, and t may be nil.
func (r *run) place(w *scratch, v int, t *grid.Tile, mode int) int64 {
	if mode == readAll {
		return w.fit.Place(r.c, v)
	}
	nb := w.fit.Neighbors(v)
	h := r.tl.Halo(*t, v)
	k := 0
	for _, u := range nb {
		if h.Cross(u) == 0 {
			nb[k] = u
			k++
		}
	}
	return w.fit.PlaceAmong(r.c, v, nb[:k])
}

// forEach runs fn(worker-scratch, i) for i in [0, n) on r.par
// goroutines under the work-stealing tile scheduler (steal.go): worker
// k starts on the contiguous range [k·n/par, (k+1)·n/par) — consecutive
// indices follow the space-filling tile order, so a worker's tiles
// share halo rows — and a worker that drains its range steals half of
// a victim's remainder instead of idling. Worker k works on the scratch
// r.workers[k]. The first error (cancellation, recovered worker panic)
// stops all workers promptly.
//
// Worker panics are contained here: each call runs under a recover that
// converts the panic into a *core.SolveError (keeping the injection
// site when the panic was induced), so one crashing tile worker
// surfaces as an error on this solve instead of killing the process.
func (r *run) forEach(n int, fn func(w *scratch, i int) error) error {
	par := min(r.par, n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := r.contain(&r.workers[0], i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	qs := r.queues[:par]
	chunk, rem := n/par, n%par
	lo := 0
	for k := 0; k < par; k++ {
		hi := lo + chunk
		if k < rem {
			hi++
		}
		qs[k].reset(lo, hi)
		lo = hi
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for k := 0; k < par; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := &r.workers[k]
			for !stop.Load() {
				i, ok := qs[k].pop()
				if !ok {
					if !r.steal(qs, k, w) {
						return // every deque empty: done
					}
					continue
				}
				if err := r.contain(w, i, fn); err != nil {
					errOnce.Do(func() { first = err })
					stop.Store(true)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return first
}

// contain invokes fn(w, i), recovering a panic into a typed
// *core.SolveError and counting it in the panic-recovery metric.
func (r *run) contain(w *scratch, i int, fn func(w *scratch, i int) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = core.PanicToError("", rec)
			if m := r.opts.Meters(); m != nil {
				m.PanicsRecovered.Add(1)
			}
		}
	}()
	return fn(w, i)
}

// tileOrder fills w.verts with tile t's cells in the configured
// tile-local visit order. The buffer grows at most once per tile shape.
func (r *run) tileOrder(w *scratch, t grid.Tile) []int {
	w.verts = t.AppendVertices(slices.Grow(w.verts[:0], t.Len()))
	if r.cfg.Order == OrderWeightDesc {
		// slices.SortFunc, not sort.Slice: the generic sort moves
		// elements directly instead of through a reflect-based swapper,
		// allocates nothing, and inlines the comparator. Pinned by
		// TestTileOrderNoAllocs.
		g := r.s
		slices.SortFunc(w.verts, func(a, b int) int {
			if wa, wb := g.Weight(a), g.Weight(b); wa != wb {
				return cmp.Compare(wb, wa) // heavier first
			}
			return cmp.Compare(a, b) // ties by vertex id
		})
	}
	return w.verts
}

// speculate is the optimistic phase: every tile is colored concurrently
// with the sequential greedy, halo neighbors read at whatever state they
// happen to be in. When tracing, each tile's coloring is a "tile" span
// under tc with the tile id as its arg.
func (r *run) speculate(tc *obsv.TraceContext) error {
	start := r.c.Start
	return r.forEach(len(r.tl.Tiles), func(w *scratch, i int) error {
		if err := r.opts.Err(); err != nil {
			return err
		}
		tile := &r.tl.Tiles[i]
		if r.inj != nil {
			// Worker-level faults: a stall (the injector sleeps inside
			// Inject) or an induced panic (contained by forEach).
			r.inj.Inject(SiteWorkerStall)
			r.inj.Inject(SiteWorkerPanic)
		}
		tsp := tc.Start("tile")
		defer tsp.EndDetail("", int64(tile.ID))
		mode := readAll
		if r.cfg.SpeculateBlind {
			mode = blindCross
		}
		for k, v := range r.tileOrder(w, *tile) {
			if k%core.CtxCheckInterval == core.CtxCheckInterval-1 {
				if err := r.opts.Err(); err != nil {
					return err
				}
			}
			m := mode
			if r.inj != nil && r.inj.Inject(SiteHaloRead) {
				// Forced halo misread: this placement is blind to every
				// cross-tile neighbor; the fixpoint must repair whatever
				// conflicts that plants.
				m = blindCross
			}
			atomic.StoreInt64(&start[v], r.place(w, v, tile, m))
		}
		return nil
	})
}

// detect sweeps every tile's low-face cells and collects, per tile, the
// conflict losers into the tile's span of r.losers: for each
// overlapping cross-tile pair the vertex in the later tile (the higher
// tile id) must move. A neighbor in an earlier tile lies across a low
// face, so the low-face cells are the only candidates, and the cell's
// halo tells each neighbor's tile without a division. The low-face
// lists are in ascending vertex-id order, so concatenating the per-tile
// loser lists in tile order yields the deterministic repair order for
// free.
func (r *run) detect() (total int, err error) {
	g, tl, start := r.s, r.tl, r.c.Start
	err = r.forEach(len(tl.Tiles), func(w *scratch, i int) error {
		if err := r.opts.Err(); err != nil {
			return err
		}
		tile := tl.Tiles[i]
		end := r.loserOff[i]
		w.verts = tl.AppendLowFaces(tile, w.verts[:0])
		for _, v := range w.verts {
			sv := atomic.LoadInt64(&start[v])
			wv := g.Weight(v)
			if sv == core.Unset || wv <= 0 {
				continue
			}
			iv := core.Interval{Start: sv, End: sv + wv}
			h := tl.Halo(tile, v)
			for _, u := range w.fit.Neighbors(v) {
				// Only the loser side records the conflict, so each
				// conflicting vertex is appended exactly once (by its
				// own tile's sweep) and winners are left untouched.
				if h.Cross(u) >= 0 {
					continue
				}
				su := atomic.LoadInt64(&start[u])
				wu := g.Weight(u)
				if su == core.Unset || wu <= 0 {
					continue
				}
				if iv.Overlaps(core.Interval{Start: su, End: su + wu}) {
					r.losers[end] = v
					end++
					break
				}
			}
		}
		r.loserEnd[i] = end
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i, end := range r.loserEnd {
		total += end - r.loserOff[i]
	}
	return total, nil
}

// tileLosers returns tile i's losers of the last detection sweep, in
// ascending vertex-id order.
func (r *run) tileLosers(i int) []int { return r.losers[r.loserOff[i]:r.loserEnd[i]] }

// fixpoint drives the detect/recolor loop until no cross-tile conflict
// remains. A sweep that finds conflicts clears every loser, then the
// coordinator places the losers one at a time against all neighbors, in
// tile order and ascending vertex id within a tile. Winners never move
// and a loser placed later sees every loser placed before it, so one
// pass leaves no conflict and the next sweep confirms the fixpoint. When
// tracing, every sweep records a "round" span under tc, with the round
// number as its arg and nested "sweep" (arg: conflicts found) and
// "recolor" spans; the metrics bundle counts detected conflicts,
// repaired losers, and completed repair passes.
func (r *run) fixpoint(tc *obsv.TraceContext) error {
	start := r.c.Start
	meters := r.opts.Meters()
	w := &r.workers[0]
	for round := 0; ; round++ {
		rsp := tc.Start("round")
		rtc := rsp.Context()
		ssp := rtc.Start("sweep")
		nconf, err := r.detect()
		ssp.EndDetail("", int64(nconf))
		if err != nil || nconf == 0 {
			rsp.EndDetail("", int64(round))
			return err
		}
		if meters != nil {
			meters.Conflicts.Add(int64(nconf))
		}
		// Clear every loser before any is placed, so no placement sees a
		// loser's stale conflicting interval.
		for i := range r.tl.Tiles {
			for _, v := range r.tileLosers(i) {
				start[v] = core.Unset
			}
		}
		csp := rtc.Start("recolor")
		for i := range r.tl.Tiles {
			for _, v := range r.tileLosers(i) {
				start[v] = r.place(w, v, nil, readAll)
			}
		}
		csp.End()
		rsp.EndDetail("", int64(round))
		if meters != nil {
			meters.Repairs.Add(int64(nconf))
			meters.RepairRounds.Add(1)
		}
	}
}
