package service

import (
	"sort"
	"sync"
	"time"

	"stencilivc/internal/obsv"
)

// tenantState is one tenant's scheduler bookkeeping.
type tenantState struct {
	name   string
	weight float64

	queue  []*job  // FIFO of admitted jobs awaiting a worker
	queued int64   // jobs admitted but not yet dispatched (bound + gauge)
	served float64 // weight-normalized work dispatched so far

	admitted int64 // jobs admitted past the queue bound, lifetime
	shed     int64 // jobs refused or dropped by the overload policy, lifetime
	partials int64 // completed jobs that returned a best-so-far partial

	// slo holds the tenant's queue-wait / solve / total latency
	// histograms backing the /healthz quantile surface. The histograms
	// are internally atomic: observations happen outside mu.
	slo *obsv.TenantSLO
}

// TenantStats is the externally visible accounting of one tenant,
// reported by GET /healthz and read by the fairness tests.
type TenantStats struct {
	// Tenant is the tenant name.
	Tenant string `json:"tenant"`
	// Weight is the tenant's fair-share weight.
	Weight float64 `json:"weight"`
	// Queued is the number of admitted jobs not yet dispatched.
	Queued int64 `json:"queued"`
	// Admitted counts jobs admitted past the queue bound, lifetime.
	Admitted int64 `json:"admitted"`
	// Shed counts jobs refused or dropped by the overload policy,
	// lifetime.
	Shed int64 `json:"shed"`
	// ServedWork is the weight-normalized solve work (vertices/weight)
	// dispatched to workers so far.
	ServedWork float64 `json:"served_work"`
	// Partial counts completed jobs that returned a best-so-far partial
	// coloring, lifetime.
	Partial int64 `json:"partial,omitempty"`
	// ShedRatio is shed / (admitted + shed) — the fraction of offered
	// jobs the overload policy refused.
	ShedRatio float64 `json:"shed_ratio,omitempty"`
	// PartialRatio is partial / completed — the fraction of finished
	// jobs that missed their deadline mid-solve.
	PartialRatio float64 `json:"partial_ratio,omitempty"`
	// P50MS, P95MS, and P99MS are the tenant's end-to-end
	// (admission-to-completion) latency quantiles in milliseconds.
	P50MS float64 `json:"p50_ms,omitempty"`
	// P95MS is the 95th-percentile end-to-end latency.
	P95MS float64 `json:"p95_ms,omitempty"`
	// P99MS is the 99th-percentile end-to-end latency.
	P99MS float64 `json:"p99_ms,omitempty"`
	// P50QueueMS is the median admission-to-dispatch wait.
	P50QueueMS float64 `json:"p50_queue_ms,omitempty"`
	// P50SolveMS is the median solver wall time.
	P50SolveMS float64 `json:"p50_solve_ms,omitempty"`
}

// scheduler is the bounded worker pool with per-tenant weighted fair
// queuing. Admitted jobs enter per-tenant FIFOs; each free worker
// dispatches the front job of the active tenant with the least
// weight-normalized served work, so throughput divides by weight among
// tenants with pending work and an idle tenant's return preempts a
// flooding one. A job is dispatched the moment a worker is free.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	closed  bool

	maxQueued int64 // per-tenant bound on admitted-but-undispatched jobs
	weights   map[string]float64

	metrics *obsv.ServiceMetrics
	run     func(*job) // worker body, supplied by the server
	wg      sync.WaitGroup
}

// newScheduler builds the scheduler; start launches its workers.
func newScheduler(maxQueued int, weights map[string]float64,
	m *obsv.ServiceMetrics, run func(*job)) *scheduler {

	if maxQueued < 1 {
		maxQueued = 1
	}
	s := &scheduler{
		tenants:   map[string]*tenantState{},
		maxQueued: int64(maxQueued),
		weights:   weights,
		metrics:   m,
		run:       run,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// tenant returns (creating on first use) the named tenant's state.
// Callers hold mu.
func (s *scheduler) tenant(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil {
		w := s.weights[name]
		if w <= 0 {
			w = 1
		}
		ts = &tenantState{name: name, weight: w, slo: obsv.NewTenantSLO()}
		s.tenants[name] = ts
	}
	return ts
}

// admit reserves a queue slot for one job of tenant name; it reports
// false when the tenant's bound is hit, in which case the transport
// sheds the job. Accounting (admitted/shed counters, queue-depth gauge)
// happens here so the transport stays a thin layer.
func (s *scheduler) admit(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenant(name)
	if ts.queued >= s.maxQueued {
		ts.shed++
		s.metrics.Shed.Add(1)
		return false
	}
	ts.queued++
	ts.admitted++
	s.metrics.Admitted.Add(1)
	s.metrics.QueueDepth.Set(s.totalQueuedLocked())
	return true
}

// unadmit releases a reserved queue slot for a job shed between
// admission and enqueue (an injected enqueue drop). The admit stays
// counted — both counters are monotone — and the job counts as shed on
// top.
func (s *scheduler) unadmit(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenant(name)
	ts.queued--
	ts.shed++
	s.metrics.Shed.Add(1)
	s.metrics.QueueDepth.Set(s.totalQueuedLocked())
}

// totalQueuedLocked sums admitted-but-undispatched jobs over tenants.
// Callers hold mu.
func (s *scheduler) totalQueuedLocked() int64 {
	var n int64
	for _, ts := range s.tenants {
		n += ts.queued
	}
	return n
}

// enqueue appends an admitted job to its tenant's FIFO and wakes one
// worker. A tenant going active after idling resumes at the minimum
// served level of the currently active tenants, so banked idle credit
// cannot starve everyone else later.
func (s *scheduler) enqueue(j *job) {
	s.mu.Lock()
	ts := s.tenant(j.tenant)
	if len(ts.queue) == 0 {
		if floor, ok := s.minActiveServedLocked(); ok && ts.served < floor {
			ts.served = floor
		}
	}
	ts.queue = append(ts.queue, j)
	s.mu.Unlock()
	s.cond.Signal()
}

// minActiveServedLocked returns the least served level among tenants
// with pending jobs. Callers hold mu.
func (s *scheduler) minActiveServedLocked() (float64, bool) {
	var m float64
	found := false
	for _, ts := range s.tenants {
		if len(ts.queue) == 0 {
			continue
		}
		if !found || ts.served < m {
			m, found = ts.served, true
		}
	}
	return m, found
}

// start launches n workers.
func (s *scheduler) start(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.work()
		}()
	}
}

// close stops intake and waits for the workers to drain every queued
// job. Jobs still queued run under whatever remains of their
// deadlines (the server cancels its base context on a forced stop, so a
// drain never hangs on long solves).
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// work is one worker's loop: pick the fair next job, run it.
func (s *scheduler) work() {
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.run(j)
	}
}

// next blocks until a job is available and returns the front job of the
// active tenant with the least weight-normalized served work, charging
// that tenant the job's solve work in vertices; nil means the scheduler
// closed and drained.
func (s *scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var pick *tenantState
		for _, ts := range s.tenants {
			if len(ts.queue) == 0 {
				continue
			}
			if pick == nil || ts.served < pick.served ||
				(ts.served == pick.served && ts.name < pick.name) {
				pick = ts
			}
		}
		if pick != nil {
			j := pick.queue[0]
			pick.queue = pick.queue[1:]
			pick.queued--
			pick.served += float64(j.stencil.Len()) / pick.weight
			s.metrics.QueueDepth.Set(s.totalQueuedLocked())
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// observeSLO records one completed job into tenant name's latency
// histograms and partial accounting; queue is admission-to-dispatch,
// solve the solver wall time, total admission-to-completion.
func (s *scheduler) observeSLO(name string, queue, solve, total time.Duration, partial bool) {
	s.mu.Lock()
	ts := s.tenant(name)
	if partial {
		ts.partials++
	}
	slo := ts.slo
	s.mu.Unlock()
	slo.Queue.Observe(queue.Seconds())
	slo.Solve.Observe(solve.Seconds())
	slo.Total.Observe(total.Seconds())
}

// stats snapshots every tenant's accounting, sorted by name.
func (s *scheduler) stats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.tenants))
	for _, ts := range s.tenants {
		st := TenantStats{
			Tenant: ts.name, Weight: ts.weight, Queued: ts.queued,
			Admitted: ts.admitted, Shed: ts.shed, ServedWork: ts.served,
			Partial: ts.partials,
		}
		if offered := ts.admitted + ts.shed; offered > 0 {
			st.ShedRatio = float64(ts.shed) / float64(offered)
		}
		if done := ts.slo.Total.Count(); done > 0 {
			st.PartialRatio = float64(ts.partials) / float64(done)
			st.P50MS = ts.slo.Total.Quantile(0.5) * 1000
			st.P95MS = ts.slo.Total.Quantile(0.95) * 1000
			st.P99MS = ts.slo.Total.Quantile(0.99) * 1000
			st.P50QueueMS = ts.slo.Queue.Quantile(0.5) * 1000
			st.P50SolveMS = ts.slo.Solve.Quantile(0.5) * 1000
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// shedStats adds one shed to tenant name's lifetime accounting for a
// drop decided outside admit/unadmit (a job expiring at dispatch).
func (s *scheduler) shedStats(name string) {
	s.mu.Lock()
	s.tenant(name).shed++
	s.mu.Unlock()
	s.metrics.Shed.Add(1)
}
