package obsv

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// EventSink is the structured solve-event log: a thin, nil-cost wrapper
// over log/slog that the solve pipeline feeds discrete events into —
// solver start/finish, tile speculation, repair sweeps, fallbacks,
// fault injections, partial-result returns. It complements the tracer
// (which answers "where did the time go") with an append-only record of
// *what happened*, in a machine-parseable form (one JSON object per
// line with NewJSONEventSink).
//
// A nil *EventSink is a valid disabled sink: every method is a no-op
// costing one nil check and allocating nothing, so instrumented code
// records unconditionally — the same contract as Trace and SolveMetrics.
// Methods take fixed scalar arguments (no variadic attrs on the solver
// paths) so a disabled call site builds no argument slice.
//
// An EventSink is safe for concurrent use whenever its slog.Handler is;
// the handlers in log/slog (JSON, Text) are.
type EventSink struct {
	l *slog.Logger
	// emitted counts delivered events, so tests and CLIs can report how
	// many events a solve produced without re-parsing the output.
	emitted atomic.Int64
}

// NewEventSink wraps a slog handler as a solve-event sink. A nil
// handler yields a nil (disabled) sink, so callers can pass through an
// optional handler unconditionally.
func NewEventSink(h slog.Handler) *EventSink {
	if h == nil {
		return nil
	}
	return &EventSink{l: slog.New(h)}
}

// NewJSONEventSink returns a sink writing one JSON event object per
// line to w — the wire format of ivc -log and ivcbench -log. A nil
// writer yields a nil (disabled) sink.
func NewJSONEventSink(w io.Writer) *EventSink {
	if w == nil {
		return nil
	}
	return NewEventSink(slog.NewJSONHandler(w, nil))
}

// Emitted reports how many events the sink has delivered; 0 on nil.
func (e *EventSink) Emitted() int64 {
	if e == nil {
		return 0
	}
	return e.emitted.Load()
}

// log delivers one event with the given attributes.
func (e *EventSink) log(msg string, attrs ...slog.Attr) {
	e.emitted.Add(1)
	e.l.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
}

// SolveStart records the dispatch of one registry solve: the algorithm,
// instance dimensionality, and vertex count.
func (e *EventSink) SolveStart(alg string, dims, vertices int) {
	if e == nil {
		return
	}
	e.log("solve.start",
		slog.String("alg", alg),
		slog.Int("dims", dims),
		slog.Int("vertices", vertices))
}

// SolveFinish records the completion of a registry solve — maxcolor and
// wall time on success, the error string on failure.
func (e *EventSink) SolveFinish(alg string, maxColor int64, wall time.Duration, err error) {
	if e == nil {
		return
	}
	if err != nil {
		e.log("solve.error",
			slog.String("alg", alg),
			slog.Duration("wall", wall),
			slog.String("error", err.Error()))
		return
	}
	e.log("solve.finish",
		slog.String("alg", alg),
		slog.Int64("maxcolor", maxColor),
		slog.Duration("wall", wall))
}

// Speculation records the start of the tile-parallel speculative phase:
// how many tiles are about to be colored by how many workers.
func (e *EventSink) Speculation(tiles, workers int, blind bool) {
	if e == nil {
		return
	}
	e.log("pgreedy.speculate",
		slog.Int("tiles", tiles),
		slog.Int("workers", workers),
		slog.Bool("blind", blind))
}

// RepairSweep records one detect/recolor round of the parallel repair
// fixpoint: the round number, conflicts the boundary sweep found, and
// whether the round recolored sequentially (the degraded mode).
func (e *EventSink) RepairSweep(round int, conflicts int64, sequential bool) {
	if e == nil {
		return
	}
	e.log("pgreedy.repair",
		slog.Int("round", round),
		slog.Int64("conflicts", conflicts),
		slog.Bool("sequential", sequential))
}

// Fallback records an engagement of a guaranteed degraded path — the
// sequential bedrock after a worker panic, the completion sweep after
// dropped updates — with the component that degraded and why.
func (e *EventSink) Fallback(component, reason string) {
	if e == nil {
		return
	}
	e.log("solve.fallback",
		slog.String("component", component),
		slog.String("reason", reason))
}

// FaultInjected records a fault-injection firing: the site, the visit
// number (1-based) on which the schedule fired, and — when the faulted
// operation carried a request trace — the trace id, so a storm's
// fault.injected events correlate with the flight-recorder dump of the
// request they disrupted. Zero trace ids (untraced solves) omit the
// attribute, keeping pre-tracing log output unchanged.
func (e *EventSink) FaultInjected(site string, visit int64, trace uint64) {
	if e == nil {
		return
	}
	if trace != 0 {
		e.log("fault.injected",
			slog.String("site", site),
			slog.Int64("visit", visit),
			slog.String("trace_id", FlightID(trace)))
		return
	}
	e.log("fault.injected",
		slog.String("site", site),
		slog.Int64("visit", visit))
}

// PartialResult records a portfolio solve returning a best-so-far
// result under cancellation: how many members completed and which won.
func (e *EventSink) PartialResult(completed, total int, winner string) {
	if e == nil {
		return
	}
	e.log("solve.partial",
		slog.Int("completed", completed),
		slog.Int("total", total),
		slog.String("winner", winner))
}

// Dropped records a portfolio member whose result was discarded because
// it panicked; the portfolio continues with the remaining members.
func (e *EventSink) Dropped(alg string, err error) {
	if e == nil {
		return
	}
	e.log("portfolio.drop",
		slog.String("alg", alg),
		slog.String("error", err.Error()))
}

// ServiceAdmit records the admission of one solve job into the service
// queue: the tenant, the job id, and the queue depth after admission.
func (e *EventSink) ServiceAdmit(tenant, id string, queued int64) {
	if e == nil {
		return
	}
	e.log("service.admit",
		slog.String("tenant", tenant),
		slog.String("id", id),
		slog.Int64("queued", queued))
}

// ServiceShed records a solve job refused or dropped by the service's
// overload policy — queue bound hit, deadline expired while queued, or
// an injected enqueue-drop fault — with the reason it was shed.
func (e *EventSink) ServiceShed(tenant, id, reason string) {
	if e == nil {
		return
	}
	e.log("service.shed",
		slog.String("tenant", tenant),
		slog.String("id", id),
		slog.String("reason", reason))
}

// ServiceBatch records one batch flush from the coalescing batcher to
// the scheduler: the batch key, its size, and how long the oldest job
// in it waited between enqueue and flush.
func (e *EventSink) ServiceBatch(key string, size int, wait time.Duration) {
	if e == nil {
		return
	}
	e.log("service.batch",
		slog.String("key", key),
		slog.Int("size", size),
		slog.Duration("wait", wait))
}

// ServiceDone records the completion of one solve job: maxcolor and the
// end-to-end wall time from admission, plus whether the result was a
// best-so-far partial under the shedding policy.
func (e *EventSink) ServiceDone(tenant, id string, maxColor int64, wall time.Duration, partial bool) {
	if e == nil {
		return
	}
	e.log("service.done",
		slog.String("tenant", tenant),
		slog.String("id", id),
		slog.Int64("maxcolor", maxColor),
		slog.Duration("wall", wall),
		slog.Bool("partial", partial))
}

// CacheHit records a solve lookup answered from the result cache: the
// algorithm, the tenant the hit is accounted to, the instance key (hex),
// and which tier answered ("memory" or "store").
func (e *EventSink) CacheHit(alg, tenant, key, tier string) {
	if e == nil {
		return
	}
	e.log("cache.hit",
		slog.String("alg", alg),
		slog.String("tenant", tenant),
		slog.String("key", key),
		slog.String("tier", tier))
}

// CacheMiss records a solve lookup that found no usable cache entry and
// fell through to a real solve.
func (e *EventSink) CacheMiss(alg, tenant, key string) {
	if e == nil {
		return
	}
	e.log("cache.miss",
		slog.String("alg", alg),
		slog.String("tenant", tenant),
		slog.String("key", key))
}

// CacheStore records a completed solve written into the result cache,
// with the in-memory payload size of the new entry.
func (e *EventSink) CacheStore(alg, key string, bytes int64) {
	if e == nil {
		return
	}
	e.log("cache.store",
		slog.String("alg", alg),
		slog.String("key", key),
		slog.Int64("bytes", bytes))
}

// CacheEvict records an entry dropped from the in-memory cache tier by
// the byte-budget LRU policy.
func (e *EventSink) CacheEvict(key string, bytes int64) {
	if e == nil {
		return
	}
	e.log("cache.evict",
		slog.String("key", key),
		slog.Int64("bytes", bytes))
}

// CacheCorrupt records a persisted cache entry that failed decode,
// checksum, or re-validation on read and was degraded to a miss.
func (e *EventSink) CacheCorrupt(key, reason string) {
	if e == nil {
		return
	}
	e.log("cache.corrupt",
		slog.String("key", key),
		slog.String("reason", reason))
}

// Event records an ad-hoc event for call sites outside the fixed solver
// taxonomy (CLIs, experiments). Unlike the fixed methods it takes
// variadic attrs, so guard hot paths with a nil check before building
// attributes.
func (e *EventSink) Event(name string, attrs ...slog.Attr) {
	if e == nil {
		return
	}
	e.log(name, attrs...)
}
