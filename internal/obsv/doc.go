// Package obsv is the observability layer of the solver pipeline: a
// span-style tracer for hierarchical per-phase timings, a registry of
// counters/gauges/histograms for solver work metrics, a structured
// solve-event log, a Go-runtime sampler, and exposition of the metric
// state in Prometheus text format and expvar JSON. It depends only on
// the standard library and is imported by internal/core, so every
// solver can be instrumented without new dependencies.
//
// The paper argues by per-phase runtime breakdowns (Section VII's Figure
// 10 splits STKDE time into coloring, scheduling, and kernel work); this
// package is the machinery that produces such breakdowns for any solve.
//
// # Tracer model
//
// A Trace records completed Spans. Spans live on integer lanes (rendered
// as thread rows by chrome://tracing): lane 0 is the main lane, and
// concurrent work — a portfolio's algorithm runs, a tile worker — takes a
// fresh lane from Trace.Lane. Within one lane, nesting is by time
// containment, exactly as Chrome renders it; Span.Child additionally
// records an explicit depth for textual reporting (Trace.Top, Tree).
// Each span captures wall time and the process CPU time consumed while
// it was open (rusage-based on Unix, zero elsewhere).
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
// Where the tracer answers "where did the time go" and the metrics
// answer "how much work happened", EventSink is the append-only record
// of *what happened*: solver start/finish, tile-speculation rounds,
// repair sweeps, degraded-mode fallbacks, fault injections, and
// partial-result returns, emitted as log/slog records (one JSON object
// per line with NewJSONEventSink). Events fire at phase and round
// granularity — never per placement — so an enabled sink costs a
// handful of records per solve, and the fixed-signature methods build
// no argument slices when the sink is nil.
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
// Every method on *Trace, *Span, *Counter, *Gauge, *Histogram,
// *SolveMetrics, *EventSink, and *Sampler accepts a nil receiver as a
// no-op, so instrumented code never branches on whether a sink is
// attached, and the disabled path costs one nil check and allocates
// nothing. The placement kernel never touches a metric per placement:
// it tallies plain integers and flushes them once per solve (Counter
// adds, Histogram.ObserveN/ObserveSum). BenchmarkPlaceLowest pins its
// 0 allocs/op contract bare and, in the Metrics rows, flushing into a
// SolveMetrics bundle after every pass. Increments on enabled counters
// are lock-free: counters are sharded across padded cache lines so
// concurrent tile-worker flushes never contend on one word
// (Counter.AddShard).
package obsv
