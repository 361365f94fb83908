package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records the completed spans of one observed run. The zero value
// is not usable; construct with NewTrace. A nil *Trace is a valid
// disabled tracer: every method is a cheap no-op and Start returns a nil
// *Span whose methods are no-ops too.
//
// A Trace is safe for concurrent use: spans may be started and ended
// from any goroutine.
type Trace struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []SpanRecord
	laneNames map[int]string

	lanes atomic.Int64
}

// Span is one open phase of a trace. End records it; a Span must be
// ended exactly once and its methods are nil-receiver-safe so disabled
// tracing costs nothing.
type Span struct {
	tr    *Trace
	name  string
	lane  int
	depth int
	start time.Time
	cpu0  time.Duration
}

// SpanRecord is one completed span.
type SpanRecord struct {
	// Name identifies the phase, e.g. "solve:PGLL" or "pgreedy/repair".
	Name string
	// Lane is the span's thread row; 0 is the main lane, concurrent
	// workers use fresh lanes. Within a lane, spans nest by containment.
	Lane int
	// Depth is the explicit nesting depth (0 for roots, parent+1 for
	// spans made with Child).
	Depth int
	// Start is the span's start offset from the beginning of the trace.
	Start time.Duration
	// Wall is the span's wall-clock duration.
	Wall time.Duration
	// CPU is the process CPU time (user+system, all threads) consumed
	// while the span was open. For overlapping spans the same CPU time is
	// charged to each; zero on platforms without rusage.
	CPU time.Duration
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace {
	return &Trace{t0: time.Now()}
}

// Lane allocates a fresh lane id for concurrent spans (tile workers,
// portfolio runs). A nil trace returns 0.
func (t *Trace) Lane() int {
	if t == nil {
		return 0
	}
	return int(t.lanes.Add(1))
}

// LabelLane names a lane for human-facing renderings — the Chrome
// export emits it as thread_name metadata so tile-worker lanes and
// per-algorithm solve lanes show up labeled in chrome://tracing instead
// of as bare tids. Later labels for the same lane win. No-op on nil.
func (t *Trace) LabelLane(lane int, name string) {
	if t == nil || name == "" {
		return
	}
	t.mu.Lock()
	if t.laneNames == nil {
		t.laneNames = make(map[int]string)
	}
	t.laneNames[lane] = name
	t.mu.Unlock()
}

// laneLabels returns a copy of the lane-name map; nil when no lane has
// been labeled (or on a nil trace).
func (t *Trace) laneLabels() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.laneNames) == 0 {
		return nil
	}
	out := make(map[int]string, len(t.laneNames))
	for k, v := range t.laneNames {
		out[k] = v
	}
	return out
}

// Start opens a root span on the main lane (lane 0). A nil trace
// returns a nil span.
func (t *Trace) Start(name string) *Span {
	return t.StartLane(0, name)
}

// StartLane opens a root span on the given lane. A nil trace returns a
// nil span.
func (t *Trace) StartLane(lane int, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, lane: lane, start: time.Now(), cpu0: processCPU()}
}

// Child opens a nested span on the same lane as s. A nil span returns a
// nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tr: s.tr, name: name, lane: s.lane, depth: s.depth + 1,
		start: time.Now(), cpu0: processCPU()}
}

// ChildLane opens a nested span on an explicit lane — a worker span
// whose parent lives on the coordinator's lane. A nil span returns nil.
func (s *Span) ChildLane(lane int, name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tr: s.tr, name: name, lane: lane, depth: s.depth + 1,
		start: time.Now(), cpu0: processCPU()}
}

// End completes the span and records it into the trace. No-op on a nil
// span.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		Name:  s.name,
		Lane:  s.lane,
		Depth: s.depth,
		Start: s.start.Sub(s.tr.t0),
		Wall:  time.Since(s.start),
		CPU:   processCPU() - s.cpu0,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, rec)
	s.tr.mu.Unlock()
}

// Len reports the number of completed spans; 0 on a nil trace.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns the completed spans sorted by (start, -wall), i.e.
// chronologically with enclosing spans before the spans they contain.
// Nil traces return nil.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Wall > out[j].Wall
	})
	return out
}

// Top returns up to n spans ordered by descending wall time (ties by
// start offset, then name). Nil traces return nil.
func (t *Trace) Top(n int) []SpanRecord {
	out := t.Spans()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// String renders the trace as an indented text tree (lane-major,
// chronological, indentation by depth) — the quick look when a Chrome
// trace viewer is overkill.
func (t *Trace) String() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "trace: (empty)"
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Lane != spans[j].Lane {
			return spans[i].Lane < spans[j].Lane
		}
		return spans[i].Start < spans[j].Start
	})
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d spans", len(spans))
	for _, sp := range spans {
		fmt.Fprintf(&b, "\n  lane %-3d %s%-24s wall=%.3fms cpu=%.3fms",
			sp.Lane, strings.Repeat("  ", sp.Depth), sp.Name,
			float64(sp.Wall.Microseconds())/1000, float64(sp.CPU.Microseconds())/1000)
	}
	return b.String()
}
