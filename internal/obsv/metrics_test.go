package obsv

import (
	"math"
	"sync"
	"testing"
)

// TestCounterShards: increments sum into one total, and concurrent
// increments from eight goroutines, as tile workers flush them, lose
// nothing (run under -race).
func TestCounterShards(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Add(8)
	c.Add(2)
	if got := c.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}

	c2 := r.Counter("test2_total", "help")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c2.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c2.Value(); got != 8000 {
		t.Fatalf("concurrent Value = %d, want 8000", got)
	}
}

// TestRegistryGetOrCreate: the same name returns the same metric; a
// kind collision panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "one")
	b := r.Counter("dup_total", "two")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Gauge("dup_total", "now a gauge")
}

// TestRegistryNameValidation rejects non-Prometheus metric names.
func TestRegistryNameValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "a-b", "a b", "a.b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
	r.Counter("ok_name:total_9", "help") // must not panic
}

// TestGauge: Set, SetMax, and Value.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(5)
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax did not raise the gauge: %d", got)
	}
}

// TestHistogramBucketing: observations land in the right cumulative
// buckets, with boundary values inclusive and overflow in +Inf.
func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	b := h.Buckets()
	if len(b) != 4 {
		t.Fatalf("got %d buckets, want 4", len(b))
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=4: +{3, 4}; +Inf: +{100}.
	want := []int64{2, 4, 6, 7}
	for i, w := range want {
		if b[i].CumulativeCount != w {
			t.Errorf("bucket %d (le=%v): count %d, want %d", i, b[i].UpperBound, b[i].CumulativeCount, w)
		}
	}
	if !math.IsInf(b[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", b[3].UpperBound)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	if got := h.Sum(); math.Abs(got-112.0) > 1e-9 {
		t.Errorf("Sum = %v, want 112", got)
	}
}

// TestBucketHelpers: the geometric and linear ladders.
func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExponentialBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
	lin := LinearBuckets(0, 5, 3)
	for i, want := range []float64{0, 5, 10} {
		if lin[i] != want {
			t.Errorf("LinearBuckets[%d] = %v, want %v", i, lin[i], want)
		}
	}
}

// TestMetricsNilSafety: nil registry, nil metrics, and the nil bundle
// are all no-ops with zero allocations on the increment path.
func TestMetricsNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x_len", "h", []float64{1})
	sm := NewSolveMetrics(r)
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(1)
		h.Observe(1)
		sm.Vertices.Add(1)
		sm.OccLen.ObserveInt(3)
	})
	if allocs != 0 {
		t.Errorf("disabled metrics allocate %.1f per op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil metrics recorded values")
	}
}

// TestEnabledIncrementsDoNotAllocate: the hot-path record operations on
// live metrics are allocation-free.
func TestEnabledIncrementsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	sm := NewSolveMetrics(r)
	allocs := testing.AllocsPerRun(200, func() {
		sm.Vertices.Add(1)
		sm.Probes.Add(8)
		sm.OccLen.ObserveInt(8)
		sm.MaxColor.SetMax(7)
	})
	if allocs != 0 {
		t.Errorf("enabled metric increments allocate %.1f per op, want 0", allocs)
	}
}
