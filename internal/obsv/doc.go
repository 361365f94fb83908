// Package obsv is the observability layer of the solver pipeline: a
// flight recorder of hierarchical spans and events for per-phase
// timings and "what happened", a registry of counters/gauges/histograms
// for solver work metrics, a Go-runtime sampler, and exposition of the
// metric state in Prometheus text format and expvar JSON. It
// depends only on the standard library and is imported by
// internal/core, so every solver can be instrumented without new
// dependencies.
//
// The paper argues by per-phase runtime breakdowns (Section VII's Figure
// 10 splits STKDE time into coloring, scheduling, and kernel work); this
// package is the machinery that produces such breakdowns for any solve.
//
// # Span model
//
// The FlightRecorder is the one span model. A TraceContext names a
// trace and the span new work nests under; TraceContext.Start opens a
// FlightSpan (a value, so the disabled path allocates nothing) and
// FlightSpan.Context derives the context for work inside it. Completed
// spans land in one bounded ring under one mutex, evicted oldest-first,
// as FlightRecords carrying trace, span and parent ids, a name, an
// integer Arg (a tile id, a round number, a maxcolor), the start time
// and the wall time.
// Snapshot reads the ring back; FlightHandler serves it as
// /debug/flight, and WriteChrome renders it for chrome://tracing,
// deriving thread rows from the parent links.
//
// # Metric taxonomy
//
// Counters are monotone totals (vertices colored, neighbor-interval
// probes, cross-tile conflicts detected and repaired, repair rounds,
// completed solves). Gauges are last-observed values (maxcolor of the
// most recent solve). Histograms are bucketed distributions (lowest-fit
// occupancy-list lengths, solve seconds). SolveMetrics bundles the
// solver taxonomy into one struct that core.SolveOptions carries.
//
// # Event log
//
// Events are flight records too: TraceContext.Event writes a point-in-
// time record (a fallback, a fault firing, a cache hit, a shed) under
// the current span. FlightRecorder.Export streams each record as it is
// written, one JSON line in the /debug/flight form (ivc -log); a
// RecordEvent with a zero trace id reaches the stream only, never the
// ring. Records fire at phase and round granularity, never per
// placement.
//
// # Runtime sampler
//
// Sampler bridges the runtime/metrics package into a Registry while a
// solve runs: GC pause and scheduler-latency histograms (delta-folded
// from the runtime's cumulative buckets), heap-live/heap-object bytes,
// goroutine counts, and GC cycles, sampled on a fixed interval by one
// background goroutine. Start/Stop are refcounted so overlapping
// portfolio members share a session, and a SamplerSummary condenses the
// session for the benchmark-trajectory reports (BENCH_*.json).
//
// # Zero cost when disabled
//
// Every method on *TraceContext, *FlightRecorder, *Counter, *Gauge,
// *Histogram, *SolveMetrics, and *Sampler accepts a nil receiver as a
// no-op, and the zero FlightSpan is inert, so instrumented code never
// branches on whether a sink is attached, and the disabled path costs
// one nil check and allocates nothing. A recorder with no Export stream
// records allocation-free, and drops untraced events at once. The
// placement kernel never touches a metric per placement:
// it tallies plain integers and flushes them once per solve (Counter
// adds, Histogram.ObserveN/ObserveSum). BenchmarkPlaceLowest pins its
// 0 allocs/op contract bare and, in the Metrics rows, flushing into a
// SolveMetrics bundle after every pass. Increments on enabled counters
// are lock-free: a Counter is one atomic word, which the once-per-solve
// flushes of the kernel and the tile workers leave nothing to contend
// over.
package obsv
