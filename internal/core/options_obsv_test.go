package core

import (
	"testing"
	"time"

	"stencilivc/internal/obsv"
)

// TestEventLogAccessor: nil receivers and empty options return a nil
// sink whose methods are no-ops, and a configured sink round-trips.
func TestEventLogAccessor(t *testing.T) {
	var o *SolveOptions
	if o.EventLog() != nil {
		t.Error("nil options returned an event sink")
	}
	o = &SolveOptions{}
	if o.EventLog() != nil {
		t.Error("empty options returned an event sink")
	}
	if n := testing.AllocsPerRun(200, func() {
		o.EventLog().SolveStart("GLL", 2, 64)
		o.EventLog().RepairSweep(0, 1, false)
		o.EventLog().SolveFinish("GLL", 1, time.Millisecond, nil)
	}); n != 0 {
		t.Errorf("nil event-log path allocates %.1f per run, want 0", n)
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
