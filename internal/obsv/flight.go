package obsv

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the flight recorder, the package's one span model:
// bounded per-request tracing in the Dapper mold. Every request (or CLI
// solve) records into one fixed-size ring of recent span/event records
// under one mutex, cheap enough to leave on in production.
// GET /debug/flight (FlightHandler) dumps the retained window filtered
// by trace id, tenant, or job; WriteChrome renders a snapshot for
// chrome://tracing; Export streams every record as it is written, one
// JSON object per line (ivc -log). SolveErrors and sheds additionally
// copy the failing trace's records into a small incident buffer, so the
// evidence survives ring overwrite. See DESIGN.md §10 and §16.

// DefaultFlightEntries is the ring capacity a FlightRecorder gets when
// the caller does not size it (ivc -flight-entries overrides).
const DefaultFlightEntries = 4096

// maxIncidents bounds the incident buffer: the most recent dumps win.
const maxIncidents = 8

// Flight record kinds, in FlightRecord.Kind.
const (
	// FlightKindSpan marks a completed span (has a wall duration).
	FlightKindSpan = "span"
	// FlightKindEvent marks a point-in-time event.
	FlightKindEvent = "event"
)

// FlightRecord is one retained span or event. All ids are opaque
// nonzero uint64s minted by the recorder; Parent is 0 for roots.
type FlightRecord struct {
	// Trace is the request's trace id: every record of one request
	// carries the same value.
	Trace uint64
	// Span is this record's own id (events get one too, so dumps sort
	// stably).
	Span uint64
	// Parent is the id of the enclosing span; 0 for root spans and for
	// events recorded without a request context.
	Parent uint64
	// Kind is FlightKindSpan or FlightKindEvent.
	Kind string
	// Name identifies the record, e.g. "admission", "solve:GLL",
	// "fault.injected".
	Name string
	// Detail is an optional free-form annotation (error text, shed
	// reason, fault site).
	Detail string
	// Tenant and Job carry the request identity for filtered dumps;
	// empty for subsystems that only know the trace id.
	Tenant string
	// Job is the service job id the record belongs to, when known.
	Job string
	// Arg is a small numeric payload — a fault visit number, a
	// maxcolor — kept as an integer so the record path never formats
	// strings.
	Arg int64
	// Start is the record's start time in Unix nanoseconds.
	Start int64
	// WallNS is the span's wall duration in nanoseconds (0 for events).
	WallNS int64
}

// FlightIncident is one preserved dump: the records of a failing trace
// copied out of the ring at the moment the failure was observed.
type FlightIncident struct {
	// Trace is the failing request's trace id.
	Trace uint64
	// Reason says why the dump was taken ("shed: queue full",
	// "solve error: ...").
	Reason string
	// At is when the incident was recorded.
	At time.Time
	// Records is the trace's retained records at dump time, sorted by
	// start time.
	Records []FlightRecord
}

// FlightRecorder is the always-on ring. A nil *FlightRecorder is a
// valid disabled recorder: every method is a no-op costing one nil
// check, and contexts minted from it are nil (whose methods are no-ops
// too) — the same contract as the rest of the package. With no Export
// stream attached, a sized recorder records with zero heap allocations
// on the hot path: one mutex, one slot assignment. The ring evicts
// oldest-first, so it always holds the newest Entries() records.
type FlightRecorder struct {
	// mu guards the ring: buf, the next slot to write, and wrapped,
	// which reports whether the ring has overwritten at least once, so
	// snapshots skip the zero-value tail of a young ring.
	mu      sync.Mutex
	buf     []FlightRecord
	next    int
	wrapped bool
	ids     atomic.Uint64

	incMu     sync.Mutex
	incidents []FlightIncident

	records  *Counter // flight_records_total
	incCount *Counter // flight_incidents_total
	entryGa  *Gauge   // flight_entries

	// exporting mirrors exp != nil, so record checks for a stream with
	// one atomic load; expMu guards exp and its line count.
	exporting atomic.Bool
	expMu     sync.Mutex
	exp       *json.Encoder
	exported  int64
}

// NewFlightRecorder builds a recorder retaining the newest entries
// records (entries <= 0 picks DefaultFlightEntries). When r is non-nil
// the recorder registers its flight_* families there:
// flight_records_total, flight_incidents_total, and the flight_entries
// capacity gauge.
func NewFlightRecorder(entries int, r *Registry) *FlightRecorder {
	if entries <= 0 {
		entries = DefaultFlightEntries
	}
	f := &FlightRecorder{buf: make([]FlightRecord, entries)}
	if r != nil {
		f.records = r.Counter("flight_records_total",
			"Span/event records written into the flight-recorder ring.")
		f.incCount = r.Counter("flight_incidents_total",
			"Incident dumps preserved by the flight recorder (solve errors, sheds).")
		f.entryGa = r.Gauge("flight_entries",
			"Capacity of the flight-recorder ring in records.")
		f.entryGa.Set(int64(entries))
	}
	return f
}

// Entries reports the ring capacity in records; 0 on nil.
func (f *FlightRecorder) Entries() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// nextID mints a fresh nonzero id (trace and span ids share the
// sequence).
func (f *FlightRecorder) nextID() uint64 { return f.ids.Add(1) }

// record writes rec into the ring, over the oldest record once the ring
// is full, and to the export stream when one is attached. Without a
// stream, zero allocations: the record is copied into a preallocated
// slot under the ring's mutex.
func (f *FlightRecorder) record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next] = rec
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.wrapped = true
	}
	f.mu.Unlock()
	f.records.Add(1)
	if f.exporting.Load() {
		f.export(rec)
	}
}

// Export streams every record written from now on — a span when it
// ends, an event when it fires — to w as one JSON line in the
// /debug/flight record form, start time included; writes are
// serialized. Export(nil) stops the stream. It returns how many lines
// went to the previous writer. A nil recorder streams nothing.
func (f *FlightRecorder) Export(w io.Writer) int64 {
	if f == nil {
		return 0
	}
	f.expMu.Lock()
	defer f.expMu.Unlock()
	n := f.exported
	f.exp, f.exported = nil, 0
	if w != nil {
		f.exp = json.NewEncoder(w)
	}
	f.exporting.Store(w != nil)
	return n
}

// Exporting reports whether a stream is attached; false on nil. Callers
// of RecordEvent(0, …) check it before building a detail string, so the
// untraced path allocates nothing when no one is listening.
func (f *FlightRecorder) Exporting() bool {
	return f != nil && f.exporting.Load()
}

// export writes one record to the stream, if one is still attached.
func (f *FlightRecorder) export(rec FlightRecord) {
	f.expMu.Lock()
	defer f.expMu.Unlock()
	if f.exp != nil && f.exp.Encode(recordJSON(rec)) == nil {
		f.exported++
	}
}

// RecordEvent records a bare event under an already-minted trace id —
// the entry point for subsystems that hold only the trace id (the chaos
// injector) and not a full context. A zero trace id (a fault outside
// any request, a cache eviction) goes to the Export stream only, never
// the ring, which keeps per-request records; with no stream attached
// it returns at once.
func (f *FlightRecorder) RecordEvent(trace uint64, name, detail string, arg int64) {
	if f == nil || (trace == 0 && !f.exporting.Load()) {
		return
	}
	rec := FlightRecord{
		Trace: trace, Span: f.nextID(), Kind: FlightKindEvent,
		Name: name, Detail: detail, Arg: arg, Start: time.Now().UnixNano(),
	}
	if trace == 0 {
		f.export(rec)
		return
	}
	f.record(rec)
}

// NewContext mints a fresh trace rooted at this recorder: the returned
// context carries a new trace id, no parent span, and the given job and
// tenant identity for filtered dumps. Nil recorders return a nil
// context, whose methods are all no-ops.
func (f *FlightRecorder) NewContext(job, tenant string) *TraceContext {
	if f == nil {
		return nil
	}
	return &TraceContext{rec: f, trace: f.nextID(), job: job, tenant: tenant}
}

// Snapshot returns the retained records matching the filters, sorted by
// start time (ties by span id). Zero-valued filters match everything:
// trace 0 means any trace, empty tenant/job mean any. limit <= 0 means
// no bound. Nil recorders return nil.
func (f *FlightRecorder) Snapshot(trace uint64, tenant, job string, limit int) []FlightRecord {
	if f == nil {
		return nil
	}
	var out []FlightRecord
	f.mu.Lock()
	n := f.next
	if f.wrapped {
		n = len(f.buf)
	}
	for _, rec := range f.buf[:n] {
		if trace != 0 && rec.Trace != trace {
			continue
		}
		if tenant != "" && rec.Tenant != tenant {
			continue
		}
		if job != "" && rec.Job != job {
			continue
		}
		out = append(out, rec)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Span < out[j].Span
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Incident copies trace's retained records into the bounded incident
// buffer so they survive ring overwrite — called on SolveError and shed
// so a failure five minutes ago is still reconstructable. The oldest
// incidents are dropped past the buffer bound. No-op on nil recorders
// and zero trace ids.
func (f *FlightRecorder) Incident(trace uint64, reason string) {
	if f == nil || trace == 0 {
		return
	}
	inc := FlightIncident{
		Trace:   trace,
		Reason:  reason,
		At:      time.Now(),
		Records: f.Snapshot(trace, "", "", 0),
	}
	f.incMu.Lock()
	f.incidents = append(f.incidents, inc)
	if len(f.incidents) > maxIncidents {
		f.incidents = f.incidents[len(f.incidents)-maxIncidents:]
	}
	f.incMu.Unlock()
	f.incCount.Add(1)
}

// Incidents returns a copy of the preserved incident dumps, oldest
// first. Nil recorders return nil.
func (f *FlightRecorder) Incidents() []FlightIncident {
	if f == nil {
		return nil
	}
	f.incMu.Lock()
	defer f.incMu.Unlock()
	out := make([]FlightIncident, len(f.incidents))
	copy(out, f.incidents)
	return out
}

// TraceContext is one request's position in its trace: the trace id plus
// the span the request is currently inside. It is immutable — deriving a
// child context (FlightSpan.Context) allocates a fresh one — so it may
// be shared freely across goroutines. A nil *TraceContext is the
// disabled state: Start returns an inert span, Event and Observe are
// no-ops, and the accessors return zero values; the whole disabled path
// is pointer compares, pinned allocation-free by the package tests.
type TraceContext struct {
	rec    *FlightRecorder
	trace  uint64
	parent uint64
	job    string
	tenant string
}

// TraceID returns the context's trace id; 0 on nil.
func (tc *TraceContext) TraceID() uint64 {
	if tc == nil {
		return 0
	}
	return tc.trace
}

// Job returns the context's job id; "" on nil.
func (tc *TraceContext) Job() string {
	if tc == nil {
		return ""
	}
	return tc.job
}

// Tenant returns the context's tenant; "" on nil.
func (tc *TraceContext) Tenant() string {
	if tc == nil {
		return ""
	}
	return tc.tenant
}

// Start opens a span named name as a child of the context's current
// span. The returned FlightSpan is a value (no allocation); End it
// exactly once. On a nil context the zero span is returned and every
// method on it is a no-op.
func (tc *TraceContext) Start(name string) FlightSpan {
	if tc == nil {
		return FlightSpan{}
	}
	return FlightSpan{tc: tc, id: tc.rec.nextID(), name: name, start: time.Now()}
}

// Event records a point-in-time event under the context's current span.
func (tc *TraceContext) Event(name, detail string, arg int64) {
	if tc == nil {
		return
	}
	tc.rec.record(FlightRecord{
		Trace: tc.trace, Span: tc.rec.nextID(), Parent: tc.parent,
		Kind: FlightKindEvent, Name: name, Detail: detail,
		Tenant: tc.tenant, Job: tc.job, Arg: arg,
		Start: time.Now().UnixNano(),
	})
}

// Observe records an already-completed span retroactively — the solve
// service stamping a "schedule" span over a job's queue wait when a
// worker takes it, without holding an open span across queue hops.
func (tc *TraceContext) Observe(name string, start time.Time, wall time.Duration) {
	if tc == nil {
		return
	}
	tc.rec.record(FlightRecord{
		Trace: tc.trace, Span: tc.rec.nextID(), Parent: tc.parent,
		Kind: FlightKindSpan, Name: name,
		Tenant: tc.tenant, Job: tc.job,
		Start: start.UnixNano(), WallNS: int64(wall),
	})
}

// FlightSpan is one open flight-recorder span. It is a value type: the
// zero value (returned by a nil context's Start) is inert, so disabled
// call sites allocate nothing and need no branches.
type FlightSpan struct {
	tc    *TraceContext
	id    uint64
	name  string
	start time.Time
}

// Active reports whether the span records anywhere (false for the zero
// span).
func (s FlightSpan) Active() bool { return s.tc != nil }

// ID returns the span's id; 0 for the zero span.
func (s FlightSpan) ID() uint64 { return s.id }

// End completes the span and writes its record.
func (s FlightSpan) End() { s.EndDetail("", 0) }

// EndDetail completes the span with an annotation and numeric payload
// (an error string, a maxcolor).
func (s FlightSpan) EndDetail(detail string, arg int64) {
	if s.tc == nil {
		return
	}
	s.tc.rec.record(FlightRecord{
		Trace: s.tc.trace, Span: s.id, Parent: s.tc.parent,
		Kind: FlightKindSpan, Name: s.name, Detail: detail,
		Tenant: s.tc.tenant, Job: s.tc.job, Arg: arg,
		Start: s.start.UnixNano(), WallNS: int64(time.Since(s.start)),
	})
}

// Context derives the child context for work nested under this span:
// same trace, parent = this span. It allocates; hot paths that may run
// disabled should derive once per request, not per operation. The zero
// span returns nil.
func (s FlightSpan) Context() *TraceContext {
	if s.tc == nil {
		return nil
	}
	return &TraceContext{rec: s.tc.rec, trace: s.tc.trace, parent: s.id,
		job: s.tc.job, tenant: s.tc.tenant}
}
