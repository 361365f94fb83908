package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone, lock-free counter: one atomic word. Hot loops
// tally in plain integers and add their totals once per solve, so the
// word sees a handful of adds per solve and nothing to contend over.
// All methods accept a nil receiver as a no-op so disabled
// instrumentation costs one nil check.
type Counter struct {
	name, help string
	n          atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the counter total; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value metric (e.g. the maxcolor of the most recent
// solve). All methods accept a nil receiver as a no-op.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the gauge's current value; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: observation counts per upper bound, plus a running sum. All
// methods accept a nil receiver as a no-op, and Observe is lock-free
// (one atomic add plus one CAS loop for the sum).
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf bucket is implicit
	counts     []atomic.Int64
	sumBits    atomic.Uint64
	// ex holds one last-write-wins exemplar cell per bucket, stamped by
	// ObserveExemplar and emitted by WritePrometheus; index-aligned with
	// counts.
	ex []exemplarCell
}

// exemplarCell is one bucket's exemplar: the last observed value (as
// float64 bits) and the trace id it came from. The two stores are
// independent atomics — a torn pair can mismatch value and trace for
// one scrape, which is acceptable for exemplars (they are samples, not
// accounting).
type exemplarCell struct {
	trace atomic.Uint64
	bits  atomic.Uint64
}

// NewHistogram builds an unregistered histogram with the given bucket
// upper bounds (ascending) — the constructor for per-key histograms
// (the service's per-tenant SLO latency ladders) that should not join
// a registry's flat exposition namespace.
func NewHistogram(buckets []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
		ex:     make([]exemplarCell, len(buckets)+1),
	}
}

// bucketIdx returns the index of the bucket v falls into. Binary search
// is overkill for the short bucket lists we use; the linear scan stays
// branch-predictable and allocation-free.
func (h *Histogram) bucketIdx(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// addSum folds v into the running sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Observe records one observation of value v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketIdx(v)].Add(1)
	h.addSum(v)
}

// ObserveExemplar records v like Observe and additionally stamps the
// bucket's exemplar with the originating trace id, so the Prometheus
// exposition links latency buckets back to concrete requests in the
// flight recorder. A zero trace id records the value without touching
// the exemplar.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	if h == nil {
		return
	}
	i := h.bucketIdx(v)
	h.counts[i].Add(1)
	h.addSum(v)
	if trace != 0 && i < len(h.ex) {
		h.ex[i].bits.Store(math.Float64bits(v))
		h.ex[i].trace.Store(trace)
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution by linear interpolation within the bucket where the
// cumulative count crosses q*count — the same estimator as PromQL's
// histogram_quantile, computed locally. Degenerate cases: a nil or
// empty histogram returns 0; when the target rank lands in the +Inf
// bucket the highest finite bound is returned (0 with no finite
// bounds); q outside [0, 1] clamps.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	lo := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if i == len(h.bounds) {
			// The +Inf tail: no upper edge to interpolate toward, so the
			// highest finite bound is the best (under-)estimate.
			if cum+c >= rank && c > 0 {
				return lo
			}
			break
		}
		hi := h.bounds[i]
		if cum+c >= rank && c > 0 {
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
		lo = hi
	}
	return lo
}

// ObserveInt records one observation of integer value v.
func (h *Histogram) ObserveInt(v int64) { h.Observe(float64(v)) }

// ObserveN records n observations of value v in one update — the bulk
// path the runtime sampler uses to fold a runtime/metrics bucket delta
// into the histogram without n individual Observe calls.
func (h *Histogram) ObserveN(v float64, n int64) { h.ObserveSum(v, n, v*float64(n)) }

// ObserveSum records n observations that all fall in v's bucket and sum
// to sum — ObserveN for callers that tally observations themselves and
// keep an exact total but not every value (the placement kernel's
// per-solve flush of its long occupancy lists).
func (h *Histogram) ObserveSum(v float64, n int64, sum float64) {
	if h == nil || n <= 0 {
		return
	}
	h.counts[h.bucketIdx(v)].Add(n)
	h.addSum(sum)
}

// Count returns the total number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns (upper bound, cumulative count) pairs in ascending
// bound order, ending with the +Inf bucket. Nil histograms return nil.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, len(h.bounds)+1)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out[i] = Bucket{UpperBound: bound, CumulativeCount: cum}
	}
	return out
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound (+Inf for the
	// last bucket).
	UpperBound float64
	// CumulativeCount is the number of observations <= UpperBound.
	CumulativeCount int64
}

// ExponentialBuckets returns n upper bounds start, start*factor,
// start*factor^2, ... — the geometric ladder that suits latency- and
// length-shaped distributions. It panics if start <= 0, factor <= 1, or
// n < 1 (a programming error at metric-definition time).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obsv: ExponentialBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width,
// start+2*width, ... for uniformly gridded distributions.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		panic("obsv: LinearBuckets requires width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}

// Registry is a named collection of metrics: the unit of exposition.
// Metric constructors are get-or-create, so independent subsystems may
// ask for the same metric name and share the instance. A nil *Registry
// is a valid disabled registry: constructors return nil metrics, whose
// methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]any
	helpFor map[string]string
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]any{}, helpFor: map[string]string{}}
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup returns the existing metric under name or stores fresh,
// panicking on invalid names and kind collisions — both programming
// errors at metric-definition time.
func (r *Registry) lookup(name, help string, fresh any) any {
	if !validName(name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		if fmt.Sprintf("%T", got) != fmt.Sprintf("%T", fresh) {
			panic(fmt.Sprintf("obsv: metric %q redefined as a different kind", name))
		}
		return got
	}
	r.byName[name] = fresh
	r.helpFor[name] = help
	return fresh
}

// Counter returns the counter registered under name, creating it with
// the given help text on first use. Nil registries return nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, &Counter{name: name, help: help}).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registries return nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, &Gauge{name: name, help: help}).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (ascending) on first use. Nil
// registries return nil.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	fresh := NewHistogram(buckets)
	fresh.name, fresh.help = name, help
	return r.lookup(name, help, fresh).(*Histogram)
}

// names returns the registered metric names sorted lexicographically.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
