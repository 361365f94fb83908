package obsv

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSamplerFamilies: constructing a sampler registers the runtime
// metric families in the registry, so /metrics shows them (zero-valued)
// even before the first Start.
func TestSamplerFamilies(t *testing.T) {
	r := NewRegistry()
	NewSampler(r, time.Millisecond)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"go_gc_pause_seconds", "go_sched_latency_seconds", "go_heap_live_bytes",
		"go_heap_objects_bytes", "go_sched_goroutines", "go_gc_cycles_total",
	} {
		if !strings.Contains(buf.String(), fam) {
			t.Errorf("exposition missing runtime-sampler family %q", fam)
		}
	}
}

// TestSamplerObserves: a sampling session spanning forced GC cycles and
// allocation records samples, GC cycles, heap bytes, and goroutines —
// in both the registry gauges and the summary.
func TestSamplerObserves(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, time.Millisecond)
	s.Start()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 8; i++ {
		sink = append(sink, make([]byte, 1<<20))
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	_ = sink
	s.Stop()

	sum := s.Summary()
	if sum.Samples < 1 {
		t.Fatalf("Samples = %d, want >= 1", sum.Samples)
	}
	if sum.GCCycles < 8 {
		t.Errorf("GCCycles = %d, want >= 8 (one per forced runtime.GC)", sum.GCCycles)
	}
	if sum.GCPauseCount < 1 {
		t.Errorf("GCPauseCount = %d, want >= 1", sum.GCPauseCount)
	}
	if sum.HeapLiveMaxBytes <= 0 {
		t.Errorf("HeapLiveMaxBytes = %d, want > 0", sum.HeapLiveMaxBytes)
	}
	if sum.GoroutinesMax < 1 {
		t.Errorf("GoroutinesMax = %d, want >= 1", sum.GoroutinesMax)
	}
	if got := r.Counter("go_gc_cycles_total", "").Value(); got != sum.GCCycles {
		t.Errorf("registry gc cycles = %d, summary says %d", got, sum.GCCycles)
	}
	if got := r.Histogram("go_gc_pause_seconds", "", nil).Count(); got != sum.GCPauseCount {
		t.Errorf("registry pause count = %d, summary says %d", got, sum.GCPauseCount)
	}
	if got := r.Gauge("go_sched_goroutines", "").Value(); got < 1 {
		t.Errorf("goroutines gauge = %d, want >= 1", got)
	}
}

// TestSamplerRefcount: nested Start/Stop pairs share one session — the
// sampler keeps sampling until the last Stop, and an unmatched Stop is
// a no-op instead of a panic.
func TestSamplerRefcount(t *testing.T) {
	s := NewSampler(nil, time.Millisecond)
	s.Start()
	s.Start()
	s.Stop() // inner stop: session stays alive
	time.Sleep(5 * time.Millisecond)
	s.Stop() // outer stop: final sample, goroutine exits
	after := s.Summary().Samples
	if after < 1 {
		t.Fatalf("Samples = %d after nested session, want >= 1", after)
	}
	time.Sleep(5 * time.Millisecond)
	if got := s.Summary().Samples; got != after {
		t.Errorf("sampler still running after last Stop: %d -> %d samples", after, got)
	}
	s.Stop() // unmatched: must not panic or block

	// A second session on the same sampler accumulates on top.
	s.Start()
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	if got := s.Summary().Samples; got <= after {
		t.Errorf("second session recorded no samples (%d -> %d)", after, got)
	}
}

// TestSamplerNil: every method of a nil sampler is a safe no-op.
func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if got := s.Summary(); got != (SamplerSummary{}) {
		t.Errorf("nil Summary = %+v, want zero", got)
	}
	if s.Interval() != 0 {
		t.Errorf("nil Interval = %v, want 0", s.Interval())
	}
}

// TestObserveN: the bulk observation path lands n counts in the right
// bucket and n*v in the sum, matching n repeated Observe calls.
func TestObserveN(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("obsv_test_bulk_a", "", []float64{1, 10, 100})
	b := r.Histogram("obsv_test_bulk_b", "", []float64{1, 10, 100})
	a.ObserveN(5, 3)
	a.ObserveN(1000, 2)
	a.ObserveN(7, 0)  // n <= 0 is a no-op
	a.ObserveN(7, -4) // n <= 0 is a no-op
	for i := 0; i < 3; i++ {
		b.Observe(5)
	}
	for i := 0; i < 2; i++ {
		b.Observe(1000)
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("ObserveN: count %d sum %g, repeated Observe: count %d sum %g",
			a.Count(), a.Sum(), b.Count(), b.Sum())
	}
	ab, bb := a.Buckets(), b.Buckets()
	for i := range ab {
		if ab[i] != bb[i] {
			t.Errorf("bucket %d: ObserveN %+v != Observe %+v", i, ab[i], bb[i])
		}
	}
	var nilH *Histogram
	nilH.ObserveN(1, 1) // nil no-op
}

// TestObserveSum: observations recorded as a count and an exact total
// land like the individual values would, when those share a bucket.
func TestObserveSum(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("obsv_test_sum_a", "", []float64{1, 10, 100})
	b := r.Histogram("obsv_test_sum_b", "", []float64{1, 10, 100})
	a.ObserveSum(200, 3, 200+301+1000)
	a.ObserveSum(5, 0, 9) // n <= 0 is a no-op
	for _, v := range []float64{200, 301, 1000} {
		b.Observe(v)
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("ObserveSum: count %d sum %g, repeated Observe: count %d sum %g",
			a.Count(), a.Sum(), b.Count(), b.Sum())
	}
	ab, bb := a.Buckets(), b.Buckets()
	for i := range ab {
		if ab[i] != bb[i] {
			t.Errorf("bucket %d: ObserveSum %+v != Observe %+v", i, ab[i], bb[i])
		}
	}
	var nilH *Histogram
	nilH.ObserveSum(1, 1, 1) // nil no-op
}
