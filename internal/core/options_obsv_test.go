package core

import (
	"testing"
	"time"

	"stencilivc/internal/obsv"
)

// TestEventLogAccessor: solve events ride the flight context. Nil
// receivers and empty options return a nil context whose event and
// span calls are no-ops that allocate nothing, and a configured context
// round-trips and records its events.
func TestEventLogAccessor(t *testing.T) {
	var o *SolveOptions
	if o.FlightCtx() != nil {
		t.Error("nil options returned a trace context")
	}
	o = &SolveOptions{}
	if o.FlightCtx() != nil {
		t.Error("empty options returned a trace context")
	}
	if n := testing.AllocsPerRun(200, func() {
		o.FlightCtx().Event("solve.fallback", "pgreedy: reason", 0)
		o.FlightCtx().Start("round").EndDetail("", 1)
	}); n != 0 {
		t.Errorf("nil event path allocates %.1f per run, want 0", n)
	}
	rec := obsv.NewFlightRecorder(16, nil)
	o.TraceCtx = rec.NewContext("job-1", "t")
	if o.FlightCtx() != o.TraceCtx {
		t.Fatal("trace context did not round-trip")
	}
	o.FlightCtx().Event("solve.partial", "GLL", 1)
	if recs := rec.Snapshot(0, "", "", 0); len(recs) != 1 || recs[0].Name != "solve.partial" {
		t.Errorf("recorded %+v, want one solve.partial event", recs)
	}
}

// TestRuntimeSamplerAccessor: nil-safe accessor plus round-trip.
func TestRuntimeSamplerAccessor(t *testing.T) {
	var o *SolveOptions
	if o.RuntimeSampler() != nil {
		t.Error("nil options returned a sampler")
	}
	s := obsv.NewSampler(nil, time.Millisecond)
	o = &SolveOptions{Sampler: s}
	if o.RuntimeSampler() != s {
		t.Error("sampler did not round-trip")
	}
}
