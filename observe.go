package stencilivc

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"stencilivc/internal/obsv"
)

// Observability types (internal/obsv), re-exported for users of the
// public API. Attach a TraceContext and/or SolveMetrics to SolveOptions
// to observe a solve; both are nil-safe, so leaving them nil costs
// nothing.
type (
	// MetricsRegistry is a named collection of counters, gauges, and
	// histograms with Prometheus and expvar exposition.
	MetricsRegistry = obsv.Registry
	// SolveMetrics bundles the solver metric taxonomy (vertices colored,
	// probes, conflicts, repair rounds, occupancy lengths, maxcolor).
	SolveMetrics = obsv.SolveMetrics
	// EventSink is the structured solve-event log: solver start/finish,
	// speculation, repair sweeps, fallbacks, fault injections, and
	// partial-result returns as slog records. Attach one to
	// SolveOptions.Events; nil costs nothing.
	EventSink = obsv.EventSink
	// RuntimeSampler bridges the Go runtime's own metrics (GC pause and
	// scheduler-latency histograms, heap and goroutine gauges) into a
	// MetricsRegistry while a solve runs. Attach one to
	// SolveOptions.Sampler; nil costs nothing.
	RuntimeSampler = obsv.Sampler
	// RuntimeSummary condenses what a RuntimeSampler observed — GC pause
	// totals, scheduler-latency maxima, heap and goroutine peaks — into
	// the flat record the benchmark-trajectory pipeline embeds in
	// BENCH_*.json.
	RuntimeSummary = obsv.SamplerSummary
	// FlightRecorder is the bounded ring of recent span and event
	// records: dumped via FlightHandler at /debug/flight, rendered for
	// chrome://tracing by WriteChromeTrace.
	FlightRecorder = obsv.FlightRecorder
	// TraceContext identifies one trace (trace id + parent span); attach
	// one from FlightRecorder.NewContext to SolveOptions.TraceCtx to
	// record the solve and every phase inside it. Nil costs one pointer
	// compare.
	TraceContext = obsv.TraceContext
	// FlightSpan is one open flight-recorder span; a value type so the
	// disabled path allocates nothing.
	FlightSpan = obsv.FlightSpan
	// FlightRecord is one retained flight-recorder entry.
	FlightRecord = obsv.FlightRecord
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obsv.NewRegistry() }

// NewSolveMetrics registers the solver metric taxonomy in r and returns
// the bundle; put it in SolveOptions.Metrics to count solver work.
func NewSolveMetrics(r *MetricsRegistry) *SolveMetrics { return obsv.NewSolveMetrics(r) }

// NewJSONEventSink returns a solve-event sink writing one JSON event
// object per line to w (the wire format of ivc -log); put it in
// SolveOptions.Events to record the solve's event stream. A nil writer
// yields a nil (disabled) sink.
func NewJSONEventSink(w io.Writer) *EventSink { return obsv.NewJSONEventSink(w) }

// NewEventSink wraps an arbitrary slog.Handler as a solve-event sink,
// for callers that already route structured logs somewhere. A nil
// handler yields a nil (disabled) sink.
func NewEventSink(h slog.Handler) *EventSink { return obsv.NewEventSink(h) }

// NewRuntimeSampler returns a runtime sampler publishing into r every
// interval (non-positive picks obsv.DefaultSampleInterval, 10ms); put
// it in SolveOptions.Sampler to sample GC pauses, scheduler latencies,
// and heap state for the duration of every solve. A nil registry is
// allowed — the sampler then only accumulates its RuntimeSummary.
func NewRuntimeSampler(r *MetricsRegistry, interval time.Duration) *RuntimeSampler {
	return obsv.NewSampler(r, interval)
}

// MetricsHandler returns an http.Handler serving r in Prometheus text
// format (plus scrape-time Go runtime gauges), ready to mount at
// /metrics alongside net/http/pprof and expvar.
func MetricsHandler(r *MetricsRegistry) http.Handler { return obsv.Handler(r) }

// NewFlightRecorder returns a flight recorder retaining about entries
// recent records (non-positive picks obsv.DefaultFlightEntries).
// Passing a registry additionally registers the flight_* counters;
// a nil registry is allowed.
func NewFlightRecorder(entries int, r *MetricsRegistry) *FlightRecorder {
	return obsv.NewFlightRecorder(entries, r)
}

// FlightHandler returns an http.Handler serving the recorder as a JSON
// dump (the GET /debug/flight surface), filterable by trace id, tenant,
// and job.
func FlightHandler(f *FlightRecorder) http.Handler { return obsv.FlightHandler(f) }

// WriteChromeTrace renders flight records — typically
// FlightRecorder.Snapshot — as Chrome trace-event JSON for
// chrome://tracing and Perfetto: one complete event per span, on thread
// rows derived from the parent links so concurrent tiles and portfolio
// members get rows of their own.
func WriteChromeTrace(w io.Writer, recs []FlightRecord) error { return obsv.WriteChrome(w, recs) }
