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
	// SiteWorkerPanic fires once per tile task (speculation) and once
	// per repair group (parallel recolor); a chaos injector panics with
	// core.InjectedPanic to model a crashing worker. The solver recovers
	// the panic into a typed core.SolveError and falls back to the
	// guaranteed sequential path.
	SiteWorkerPanic = core.FaultSite("pgreedy/worker-panic")
	// SiteHaloRead fires once per speculative placement; when it fires
	// the placement ignores every cross-tile neighbor — a forced halo
	// misread. The conflicts it plants must be found and repaired by the
	// detect/recolor fixpoint.
	SiteHaloRead = core.FaultSite("pgreedy/halo-read")
	// SiteRepairDrop fires once per loser recolored by a parallel repair
	// round; when it fires the update is dropped and the loser stays
	// uncolored until the post-fixpoint completion sweep places it — the
	// sweep, not the round, is the correctness backstop.
	SiteRepairDrop = core.FaultSite("pgreedy/repair-drop")
)

func init() {
	core.RegisterFaultSite(SiteWorkerStall,
		"tile-parallel speculation, once per tile: a Stalling rule sleeps the worker, skewing halo read timing")
	core.RegisterFaultSite(SiteWorkerPanic,
		"tile-parallel speculation and repair groups: a Panicking rule crashes the worker; recovered into the sequential fallback")
	core.RegisterFaultSite(SiteHaloRead,
		"per speculative placement: firing blinds the placement to cross-tile neighbors (forced halo misread)")
	core.RegisterFaultSite(SiteRepairDrop,
		"per loser recolored by a parallel repair round: firing drops the update; the completion sweep re-places it")
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

// defaultMaxRounds bounds the parallel repair rounds before the solver
// falls back to the guaranteed single-pass sequential repair. The
// strict-shrink argument makes the loop terminate on its own; the cap
// only limits worst-case latency on adversarial schedules.
const defaultMaxRounds = 16

// Config tunes the tile-parallel solver. The zero value is a valid
// default configuration.
type Config struct {
	// TileSize is the tile edge length in cells; <= 0 picks
	// DefaultTileSize2D / DefaultTileSize3D by dimensionality.
	TileSize int
	// Order is the tile-local visit order.
	Order Order
	// MaxRounds caps the parallel repair rounds before the sequential
	// fallback; <= 0 picks defaultMaxRounds.
	MaxRounds int
	// SpeculateBlind makes the speculative phase ignore cross-tile
	// neighbors entirely instead of reading their current state. Every
	// halo conflict is then discovered by the repair loop, which makes
	// the whole solve deterministic regardless of worker timing — and
	// maximally stresses the repair machinery. Tests and the fuzz target
	// rely on it; production solves are faster with optimistic reads.
	SpeculateBlind bool
}

// Greedy colors s with the tile-parallel speculative greedy solver,
// running up to opts.Parallelism tile workers. The returned coloring is
// always complete and valid: the solver only returns once the
// conflict-detection sweep reaches a fixpoint (zero cross-tile
// conflicts) and a completion sweep has re-placed any vertex a degraded
// repair round left uncolored; intra-tile edges are valid by
// construction.
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
	lg, ok := s.(core.Lattice)
	if !ok {
		// Future stencil types that are not lattices still solve
		// correctly, just sequentially.
		return core.GreedyColorOpts(s, s.LineOrder(), opts)
	}
	c, err := speculative(lg, s, cfg, opts)
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

// speculative runs the speculate/repair/complete pipeline, containing
// worker panics as typed errors for Greedy to act on. When tracing, the
// pgreedy/speculate span's arg is the tile count.
func speculative(lg core.Lattice, s grid.Stencil, cfg Config, opts *core.SolveOptions) (core.Coloring, error) {
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
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	par := min(opts.Par(), len(tl.Tiles))
	bufs := acquireBufs(len(tl.Tiles), s.Len(), max(par, 1))
	defer releaseBufs(bufs)
	r := &run{
		g: lg, s: s, tl: tl, cfg: cfg, opts: opts,
		inj:  opts.Faults(),
		c:    core.NewColoring(s.Len()),
		par:  par,
		bufs: bufs,
		mark: bufs.mark,
	}
	// One bind per solve: every worker kernel shares its binding (BindAs)
	// instead of rescanning the weights.
	r.fit.Bind(lg)

	sp := opts.FlightCtx().Start("pgreedy/speculate")
	err = r.speculate(sp.Context())
	sp.EndDetail("", int64(len(tl.Tiles)))
	if err != nil {
		return core.Coloring{}, err
	}
	sp = opts.FlightCtx().Start("pgreedy/repair")
	err = r.fixpoint(sp.Context(), maxRounds)
	sp.End()
	if err != nil {
		return core.Coloring{}, err
	}
	return r.c, nil
}

// run holds the shared state of one solve.
type run struct {
	g    core.Lattice
	s    grid.Stencil
	tl   *grid.Tiling
	cfg  Config
	opts *core.SolveOptions
	// inj caches opts.Faults() so the per-placement injection checks are
	// a single pointer compare on the production (nil) path.
	inj core.Injector
	c   core.Coloring
	par int
	// fit is bound to g once per solve; worker kernels copy its binding.
	fit core.FitScratch
	// bufs holds the arena-pooled per-solve buffers; released by
	// speculative when the solve returns.
	bufs *solveBufs
	// seqRepair records that the guaranteed sequential repair pass
	// engaged, so the fallback counter is bumped once per solve.
	seqRepair bool

	// boundary caches each tile's halo cells (built lazily by fixpoint).
	boundary [][]int
	// mark stamps each vertex with the repair round in which it was a
	// conflict loser; round is the current stamp. Written only by the
	// coordinator between rounds, read-only inside a round, so parallel
	// repair placements can deterministically ignore cross-tile peers of
	// the same round (skipMarked).
	mark  []int32
	round int32

	// workerSeq hands each worker scratch a distinct counter shard.
	workerSeq atomic.Int64
}

// scratch is the per-worker state: the placement kernel with its
// fixed-size neighbor and occupancy arrays and its tallies (kept in one
// heap object per worker so a placement allocates nothing) plus
// reusable buffers, counters, and the worker's counter shard.
type scratch struct {
	fit   core.FitScratch
	verts []int
	// steals counts tile-range steals this worker performed; flushed
	// into the Steals metric alongside the placement tallies.
	steals int64
	// shard is the worker's counter shard, so concurrent flushes land on
	// distinct cache lines.
	shard int
}

// newScratch acquires a worker scratch from the arena, binding its
// kernel to the run's graph and giving it a fresh counter shard.
// Counterpart of release.
func (r *run) newScratch() *scratch {
	w := scratchPool.Get().(*scratch)
	w.fit.BindAs(&r.fit)
	w.shard = int(r.workerSeq.Add(1))
	return w
}

// release flushes a worker scratch's tallies and steal count — on the
// worker's own counter shard, so concurrent flushes do not contend —
// and returns it to the arena; the grown verts buffer stays warm for
// the next worker.
func (r *run) release(w *scratch) {
	w.fit.Flush(r.opts, w.shard)
	if m := r.opts.Meters(); m != nil {
		m.Steals.AddShard(w.shard, w.steals)
	}
	w.steals = 0
	scratchPool.Put(w)
}

// Visibility modes of a placement: which neighbors it is allowed to
// observe.
const (
	// readAll observes every neighbor's current (atomic) state: the
	// optimistic speculative phase and the sequential repair pass.
	readAll = iota
	// blindCross ignores cross-tile neighbors entirely
	// (Config.SpeculateBlind's speculative phase).
	blindCross
	// skipMarked ignores cross-tile neighbors that are losers of the
	// current repair round (r.mark[u] == r.round). Same-tile losers are
	// still observed — they are recolored sequentially by the same
	// worker — so a parallel repair round can never create an intra-tile
	// conflict, and its outcome depends only on the conflict set, never
	// on worker timing.
	skipMarked
)

// place computes the lowest-fit start of v against the shared state
// (the kernel reads neighbor starts atomically and treats Unset as
// free). ownTile is v's tile id: the blindCross and skipMarked modes
// drop the neighbors they hide from the kernel's list before it
// gathers.
func (r *run) place(w *scratch, v, ownTile, mode int) int64 {
	nb := w.fit.Neighbors(v)
	if mode != readAll {
		k := 0
		for _, u := range nb {
			if (mode == skipMarked && r.mark[u] != r.round) || r.tl.TileOf(u) == ownTile {
				nb[k] = u
				k++
			}
		}
		nb = nb[:k]
	}
	return w.fit.Place(r.c, v, nb)
}

// forEach runs fn(worker-scratch, i) for i in [0, n) on r.par
// goroutines under the work-stealing tile scheduler (steal.go): worker
// k starts on the contiguous range [k·n/par, (k+1)·n/par) — consecutive
// indices follow the space-filling tile order, so a worker's tiles
// share halo rows — and a worker that drains its range steals half of
// a victim's remainder instead of idling. The first error
// (cancellation, recovered worker panic) stops all workers promptly;
// scratch tallies (including steal counts) are flushed into the sinks
// on return.
//
// Worker panics are contained here: each call runs under a recover that
// converts the panic into a *core.SolveError (keeping the injection
// site when the panic was induced), so one crashing tile worker
// surfaces as an error on this solve instead of killing the process.
func (r *run) forEach(n int, fn func(w *scratch, i int) error) error {
	par := min(r.par, n)
	if par <= 1 {
		w := r.newScratch()
		defer r.release(w)
		for i := 0; i < n; i++ {
			if err := r.contain(w, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	qs := r.bufs.queues[:par]
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
			w := r.newScratch()
			defer r.release(w)
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
// tile-local visit order.
func (r *run) tileOrder(w *scratch, t grid.Tile) []int {
	w.verts = t.AppendVertices(w.verts[:0])
	if r.cfg.Order == OrderWeightDesc {
		// slices.SortFunc, not sort.Slice: the generic sort moves
		// elements directly instead of through a reflect-based swapper,
		// allocates nothing, and inlines the comparator. Pinned by
		// TestTileOrderNoAllocs.
		g := r.g
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
		tile := r.tl.Tiles[i]
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
		for k, v := range r.tileOrder(w, tile) {
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
			atomic.StoreInt64(&start[v], r.place(w, v, tile.ID, m))
		}
		return nil
	})
}

// detect sweeps every tile's boundary cells and collects, per tile, the
// conflict losers: for each overlapping cross-tile pair the vertex with
// the higher (tile-id, vertex-id) must move. Boundary lists are in
// ascending vertex-id order, so concatenating the per-tile loser lists
// in tile order yields the deterministic repair order for free.
func (r *run) detect(losersByTile [][]int) (total int, err error) {
	g, tl, start := r.g, r.tl, r.c.Start
	err = r.forEach(len(tl.Tiles), func(w *scratch, i int) error {
		if err := r.opts.Err(); err != nil {
			return err
		}
		losersByTile[i] = losersByTile[i][:0]
		tid := tl.Tiles[i].ID
		for _, v := range r.boundary[i] {
			sv := atomic.LoadInt64(&start[v])
			wv := g.Weight(v)
			if sv == core.Unset || wv <= 0 {
				continue
			}
			iv := core.Interval{Start: sv, End: sv + wv}
			for _, u := range w.fit.Neighbors(v) {
				tu := tl.TileOf(u)
				if tu == tid {
					continue
				}
				// Only the loser side records the conflict, so each
				// conflicting vertex is appended exactly once (by its
				// own tile's sweep) and winners are left untouched.
				if tu > tid || (tu == tid && u > v) {
					continue
				}
				su := atomic.LoadInt64(&start[u])
				wu := g.Weight(u)
				if su == core.Unset || wu <= 0 {
					continue
				}
				if iv.Overlaps(core.Interval{Start: su, End: su + wu}) {
					losersByTile[i] = append(losersByTile[i], v)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, l := range losersByTile {
		total += len(l)
	}
	return total, nil
}

// tileGroup is one repair round's loser set for a single tile. The
// whole group is recolored sequentially by one worker (in ascending
// vertex-id order), so a parallel round can never create an intra-tile
// conflict and the round's outcome depends only on the conflict set.
type tileGroup struct {
	tile  int
	verts []int
}

// fixpoint drives the detect/recolor loop until no cross-tile conflict
// remains. Parallel repair rounds recolor the losers of each tile
// sequentially within the tile (one worker per tile group) so no new
// intra-tile conflict can appear; if the conflict set ever fails to
// shrink strictly — or maxRounds is exhausted — one sequential pass over
// the remaining losers finishes the job deterministically. When tracing,
// every round records a "round" span under tc, with the round number as
// its arg and nested "sweep" (arg: conflicts found) and "recolor"
// (detail "sequential" on the sequential pass) spans; the metrics
// bundle counts detected conflicts, repaired losers, and completed
// rounds.
func (r *run) fixpoint(tc *obsv.TraceContext, maxRounds int) error {
	tl, start := r.tl, r.c.Start
	meters := r.opts.Meters()
	r.boundary = r.bufs.boundary
	if err := r.forEach(len(tl.Tiles), func(_ *scratch, i int) error {
		r.boundary[i] = tl.AppendBoundary(tl.Tiles[i], r.boundary[i][:0])
		return nil
	}); err != nil {
		return err
	}
	losersByTile := r.bufs.losers
	prev := -1
	for round := 0; ; round++ {
		rsp := tc.Start("round")
		rtc := rsp.Context()
		ssp := rtc.Start("sweep")
		nconf, err := r.detect(losersByTile)
		ssp.EndDetail("", int64(nconf))
		if err != nil {
			rsp.EndDetail("", int64(round))
			return err
		}
		if meters != nil {
			meters.Conflicts.Add(int64(nconf))
		}
		if nconf == 0 {
			rsp.EndDetail("", int64(round))
			return r.complete(tc)
		}
		sequential := round >= maxRounds || (prev >= 0 && nconf >= prev)
		prev = nconf
		if sequential && !r.seqRepair {
			r.seqRepair = true
			if meters != nil {
				meters.Fallbacks.Add(1)
			}
			rtc.Event("solve.fallback", "pgreedy: repair rounds stopped shrinking; sequential repair pass", 0)
		}
		// Clear every loser before any recoloring starts, so a round's
		// placements see losers as uncolored rather than as their stale
		// conflicting intervals; stamp them so skipMarked placements can
		// tell this round's losers apart from settled vertices.
		r.round++
		groups := r.bufs.groups[:0]
		for i, verts := range losersByTile {
			for _, v := range verts {
				atomic.StoreInt64(&start[v], core.Unset)
				r.mark[v] = r.round
			}
			if len(verts) > 0 {
				groups = append(groups, tileGroup{tile: tl.Tiles[i].ID, verts: verts})
			}
		}
		r.bufs.groups = groups
		csp, detail := rtc.Start("recolor"), ""
		if sequential {
			detail = "sequential"
			w := r.newScratch()
			for _, g := range groups {
				for _, v := range g.verts {
					atomic.StoreInt64(&start[v], r.place(w, v, g.tile, readAll))
				}
			}
			r.release(w)
		} else if err := r.forEach(len(groups), func(w *scratch, i int) error {
			if err := r.opts.Err(); err != nil {
				return err
			}
			if r.inj != nil {
				r.inj.Inject(SiteWorkerPanic)
			}
			for _, v := range groups[i].verts {
				if r.inj != nil && r.inj.Inject(SiteRepairDrop) {
					// Dropped repair update: the loser stays uncolored;
					// the completion sweep after the fixpoint places it.
					continue
				}
				atomic.StoreInt64(&start[v], r.place(w, v, groups[i].tile, skipMarked))
			}
			return nil
		}); err != nil {
			csp.End()
			rsp.EndDetail("", int64(round))
			return err
		}
		csp.EndDetail(detail, 0)
		rsp.EndDetail("", int64(round))
		if meters != nil {
			meters.Repairs.Add(int64(nconf))
			meters.RepairRounds.Add(1)
		}
		// The next detect sweep verifies the fixpoint.
	}
}

// complete is the post-fixpoint completion sweep: any vertex still
// uncolored — dropped repair updates under fault injection, or any
// future bug that loses a placement — is re-placed sequentially against
// the settled state, so Greedy's complete-and-valid contract holds on
// every degraded path. With nothing uncolored (every production run)
// the sweep is a read-only scan. Placements run one at a time in vertex
// order against fully-settled neighbors, so they are deterministic and
// can never introduce a new conflict. An engaged sweep records a
// solve.fallback event under tc.
func (r *run) complete(tc *obsv.TraceContext) error {
	start := r.c.Start
	var w *scratch
	var n int64
	for v := range start {
		if atomic.LoadInt64(&start[v]) != core.Unset {
			continue
		}
		if w == nil {
			w = r.newScratch()
		}
		atomic.StoreInt64(&start[v], r.place(w, v, r.tl.TileOf(v), readAll))
		n++
	}
	if w == nil {
		return nil
	}
	r.release(w)
	if m := r.opts.Meters(); m != nil {
		m.Repairs.Add(n)
	}
	if !r.seqRepair {
		// The sweep acted as the guaranteed path for this solve; count
		// the fallback engagement once.
		r.seqRepair = true
		if m := r.opts.Meters(); m != nil {
			m.Fallbacks.Add(1)
		}
		tc.Event("solve.fallback", "pgreedy: completion sweep re-placed dropped vertices", 0)
	}
	return nil
}
