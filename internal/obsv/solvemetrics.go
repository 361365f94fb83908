package obsv

// SolveMetrics bundles the solver metric taxonomy: the counters,
// gauges, and histograms every solve path feeds. It is carried by
// core.SolveOptions; a nil *SolveMetrics disables all of them (every
// field method is nil-receiver-safe, so instrumented code records
// unconditionally).
type SolveMetrics struct {
	// Vertices counts vertex placements (initial coloring and
	// recoloring alike) — ivc_vertices_colored_total.
	Vertices *Counter
	// Probes counts neighbor intervals examined by the lowest-fit
	// engine — ivc_probe_intervals_total.
	Probes *Counter
	// Conflicts counts cross-tile conflicts detected by the parallel
	// solver's boundary sweeps — ivc_conflicts_detected_total.
	Conflicts *Counter
	// Repairs counts conflict losers recolored by the parallel solver's
	// repair pass — ivc_conflicts_repaired_total.
	Repairs *Counter
	// RepairRounds counts completed detect/recolor rounds: one repair
	// pass for a parallel solve whose sweep found conflicts, none
	// otherwise — ivc_repair_rounds_total.
	RepairRounds *Counter
	// Steals counts tile-range steals by the work-stealing scheduler:
	// how often a worker that drained its own contiguous range took half
	// of another worker's remainder — ivc_tile_steals_total. A high rate
	// relative to tile count means the static partition was badly
	// weight-skewed.
	Steals *Counter
	// Solves counts completed top-level solves — ivc_solves_total.
	Solves *Counter
	// Allocs counts heap allocations performed during solves (MemStats
	// deltas around each registry-dispatched solve) — ivc_solve_allocs_total.
	Allocs *Counter
	// MaxColor holds the most recent solve's maxcolor — ivc_last_maxcolor.
	MaxColor *Gauge
	// OccLen is the distribution of lowest-fit occupancy-list lengths
	// (colored neighbors per placement) — ivc_occupancy_list_length.
	OccLen *Histogram
	// SolveSeconds is the distribution of per-solve wall times —
	// ivc_solve_seconds.
	SolveSeconds *Histogram

	// The degraded-solve taxonomy: how often the pipeline had to step
	// down its degradation ladder (panic → SolveError → fallback →
	// partial result) instead of completing on the happy path.

	// Fallbacks counts tile-parallel solves that fell back to the
	// guaranteed sequential greedy after a worker panic —
	// solver_fallbacks_total.
	Fallbacks *Counter
	// PanicsRecovered counts solver panics recovered into typed errors
	// instead of crashing the process — solver_panics_recovered_total.
	PanicsRecovered *Counter
	// PartialResults counts portfolio solves that returned a best-so-far
	// valid coloring with ErrPartial after cancellation —
	// solver_partial_results_total.
	PartialResults *Counter
}

// NewSolveMetrics registers the solver taxonomy in r and returns the
// bundle. A nil registry yields a non-nil bundle of nil (disabled)
// metrics, which callers may still pass around safely.
func NewSolveMetrics(r *Registry) *SolveMetrics {
	return &SolveMetrics{
		Vertices: r.Counter("ivc_vertices_colored_total",
			"Vertex placements performed (initial coloring and recoloring)."),
		Probes: r.Counter("ivc_probe_intervals_total",
			"Neighbor intervals examined by the lowest-fit engine."),
		Conflicts: r.Counter("ivc_conflicts_detected_total",
			"Cross-tile conflicts found by the parallel solver's boundary sweeps."),
		Repairs: r.Counter("ivc_conflicts_repaired_total",
			"Conflict losers recolored by the parallel solver's repair pass."),
		RepairRounds: r.Counter("ivc_repair_rounds_total",
			"Detect/recolor rounds completed by the parallel solver."),
		Steals: r.Counter("ivc_tile_steals_total",
			"Tile-range steals performed by the work-stealing scheduler."),
		Solves: r.Counter("ivc_solves_total",
			"Completed registry-dispatched solves."),
		Allocs: r.Counter("ivc_solve_allocs_total",
			"Heap allocations performed during registry-dispatched solves."),
		MaxColor: r.Gauge("ivc_last_maxcolor",
			"Maxcolor of the most recent completed solve."),
		// Stencil degrees are at most 26, so the interesting occupancy
		// lengths sit in [0, 32]; finer buckets low, one catch-all high.
		OccLen: r.Histogram("ivc_occupancy_list_length",
			"Colored-neighbor occupancy-list length per lowest-fit placement.",
			[]float64{0, 1, 2, 4, 8, 12, 16, 20, 26, 32}),
		SolveSeconds: r.Histogram("ivc_solve_seconds",
			"Wall time per registry-dispatched solve, in seconds.",
			ExponentialBuckets(0.0001, 4, 10)),
		Fallbacks: r.Counter("solver_fallbacks_total",
			"Sequential-fallback engagements after a parallel solver degraded."),
		PanicsRecovered: r.Counter("solver_panics_recovered_total",
			"Solver panics recovered into typed errors instead of crashing."),
		PartialResults: r.Counter("solver_partial_results_total",
			"Portfolio solves returning a best-so-far valid coloring with ErrPartial."),
	}
}
