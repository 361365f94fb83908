package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
	"stencilivc/internal/resultcache"
)

// Config parameterizes a Server. The zero value is serviceable: defaults
// fill in a small worker pool and a bounded per-tenant queue, with every
// observability sink disabled.
type Config struct {
	// Workers bounds the scheduler's worker pool; <= 0 picks
	// min(GOMAXPROCS, 4).
	Workers int
	// MaxQueuedPerTenant bounds each tenant's admitted-but-undispatched
	// jobs; past it, admission sheds. It is the daemon's only queue
	// bound. <= 0 picks 256.
	MaxQueuedPerTenant int
	// DefaultTimeout is the per-job deadline applied when a request
	// carries none; 0 picks 30s. Deadlines are the shedding policy, so
	// every job gets one.
	DefaultTimeout time.Duration
	// TenantWeights sets per-tenant fair-share weights; unlisted tenants
	// weigh 1.
	TenantWeights map[string]float64
	// Registry, when non-nil, receives the service_* and solver metric
	// families and is served at /metrics.
	Registry *obsv.Registry
	// Sampler, when non-nil, runs for the duration of every dispatched
	// solve (the PR 5 runtime sampler).
	Sampler *obsv.Sampler
	// Injector, when non-nil, arms the service/* and solver fault sites.
	Injector core.Injector
	// FlightEntries sizes the always-on flight recorder (per-request
	// trace ring behind GET /debug/flight); <= 0 picks 4096 entries. The
	// recorder cannot be disabled: it is fixed-cost and allocation-free
	// on the record path. Server.Flight returns it, so a chaos injector
	// can share the ring and ivc -serve -log can attach an Export stream
	// before the first request.
	FlightEntries int
	// JobRetention bounds how many finished jobs GET /jobs/{id} can
	// still see; <= 0 picks 1024.
	JobRetention int
	// CacheBytes bounds the in-memory tier of the content-addressed
	// result cache. The cache is on by default: 0 picks 64 MiB, and a
	// negative value disables caching entirely. Identical instances
	// (same dims, same weights, same algorithm) then answer from the
	// cache instead of re-running the solver.
	CacheBytes int64
	// CacheDir, when non-empty, backs the result cache with a
	// resultcache.FileStore rooted at this directory, so cached
	// colorings survive daemon restarts. Ignored when CacheBytes < 0.
	CacheDir string
	// CacheMaxEntries, when > 0, caps how many entries the CacheDir
	// store keeps at open: the oldest by file modification time are
	// evicted first. Ignored when CacheDir is unset.
	CacheMaxEntries int
	// CacheTTL, when > 0, expires CacheDir entries whose recorded
	// creation time is older than this at open, and reclaims entries
	// whose payload no longer decodes. Ignored when CacheDir is unset.
	CacheTTL time.Duration
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if cfg.MaxQueuedPerTenant <= 0 {
		cfg.MaxQueuedPerTenant = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = 1024
	}
	return cfg
}

// Server is the assembled solve daemon: transport → fair scheduler →
// solver. Build one with New, mount Handler, and Close it to drain.
type Server struct {
	cfg     Config
	metrics *obsv.ServiceMetrics
	solveM  *obsv.SolveMetrics
	sched   *scheduler
	// flight is the always-on per-request trace ring behind
	// GET /debug/flight; slo holds the aggregate latency histograms
	// exposed with trace-id exemplars at /metrics.
	flight *obsv.FlightRecorder
	slo    *obsv.SLOMetrics
	// cache memoizes completed solves by instance fingerprint; nil when
	// Config.CacheBytes < 0 disabled it. solveCache is its shared view,
	// the one solves consult: a job's starts and the cache entry are one
	// array, which holds because the daemon only encodes starts.
	cache      *resultcache.Cache
	solveCache core.SolveCache

	// baseCtx parents every job's solve context; baseCancel aborts
	// in-flight solves on a forced stop.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	started time.Time
	nextID  atomic.Int64
	busy    atomic.Int64

	// jobs retains recent jobs for GET /jobs/{id}; doneOrder holds
	// finished ids oldest-first for retention pruning.
	jobsMu    sync.Mutex
	jobs      map[string]*job
	doneOrder []string

	// closing sheds new admissions during a drain; closeMu serializes
	// admissions against closing the scheduler.
	closeMu sync.RWMutex
	closing bool
}

// New assembles and starts a server: the worker pool runs on return.
// Close stops it. The only constructor failure is an unusable cache
// directory (Config.CacheDir); every other field has a serviceable
// default.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: obsv.NewServiceMetrics(cfg.Registry),
		solveM:  obsv.NewSolveMetrics(cfg.Registry),
		started: time.Now(),
		jobs:    map[string]*job{},
	}
	if cfg.Registry == nil {
		// Keep the bundles non-nil so instrumentation stays
		// unconditional; a nil registry makes every metric a no-op.
		s.metrics = obsv.NewServiceMetrics(nil)
		s.solveM = obsv.NewSolveMetrics(nil)
	}
	s.flight = obsv.NewFlightRecorder(cfg.FlightEntries, cfg.Registry)
	s.slo = obsv.NewSLOMetrics(cfg.Registry)
	if cfg.CacheBytes >= 0 {
		var store resultcache.Store
		if cfg.CacheDir != "" {
			fstore, err := resultcache.OpenFileStoreSwept(cfg.CacheDir, resultcache.SweepPolicy{
				MaxEntries: cfg.CacheMaxEntries,
				TTL:        cfg.CacheTTL,
			})
			if err != nil {
				return nil, err
			}
			store = fstore
		}
		s.cache = resultcache.New(resultcache.Config{
			MaxBytes: cfg.CacheBytes, // 0 picks the cache's 64 MiB default
			Store:    store,
			Metrics:  obsv.NewCacheMetrics(cfg.Registry),
			Flight:   s.flight,
			Injector: cfg.Injector,
		})
		s.solveCache = s.cache.Shared()
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.sched = newScheduler(cfg.MaxQueuedPerTenant, cfg.TenantWeights, s.metrics, s.runJob)
	s.sched.start(cfg.Workers)
	return s, nil
}

// Close drains the daemon: new admissions shed and the workers finish
// every queued job. When ctx expires first, the server cancels its base
// context so in-flight and still-queued solves abort promptly, then
// finishes the drain.
func (s *Server) Close(ctx context.Context) error {
	s.closeMu.Lock()
	if s.closing {
		s.closeMu.Unlock()
		return errors.New("service: already closed")
	}
	s.closing = true
	s.closeMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.sched.close()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("service: drain cut short: %w", ctx.Err())
		s.baseCancel()
		<-drained
	}
	s.baseCancel()
	return err
}

// Submit admits one solve request and returns its job. The error return
// distinguishes malformed requests (the transport answers 400) from
// sheds, which come back as a finished job with StatusShed.
func (s *Server) Submit(req *Request) (*job, error) {
	tenant, alg, stencil, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	// Mint the request's trace: the admission span is the root, and the
	// job's context is parented under it so every later stage (batch,
	// schedule, solve) hangs off one tree.
	tc := s.flight.NewContext(id, tenant)
	adm := tc.Start("admission")
	defer adm.End()
	j := newJob(id, tenant, alg, stencil, time.Now().Add(timeout))
	j.tc = adm.Context()
	s.remember(j)

	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing {
		s.shed(j, "server draining", false)
		return j, nil
	}
	if !s.sched.admit(tenant) {
		s.shed(j, fmt.Sprintf("queue full for tenant %q: shedding instead of queuing unboundedly", tenant), false)
		return j, nil
	}
	if s.cfg.Injector != nil && s.cfg.Injector.Inject(SiteEnqueueDrop) {
		s.sched.unadmit(tenant)
		s.shed(j, "injected enqueue drop", true)
		return j, nil
	}
	// A job is its own batch, flushed at admission: the batch span is
	// zero-length and the service_batch_* families see one job and no
	// wait.
	s.metrics.Batches.Add(1)
	s.metrics.BatchSize.ObserveInt(1)
	s.metrics.BatchWaitSeconds.Observe(0)
	j.tc.Observe("batch", j.enqueued, 0)
	s.sched.enqueue(j)
	return j, nil
}

// shed finishes j as refused at admission by the overload policy and
// retires it, since no worker will. When counted is false the scheduler
// has not accounted the shed yet (the job never held a queue slot), so
// the tenant's lifetime shed counter is bumped here.
func (s *Server) shed(j *job, reason string, counted bool) {
	if !counted {
		s.sched.shedStats(j.tenant)
	}
	j.tc.Event("service.shed", reason, 0)
	s.flight.Incident(j.tc.TraceID(), "shed: "+reason)
	j.finish(Result{Status: StatusShed, Error: reason})
	s.retire(j)
}

// remember registers j for GET /jobs/{id}. It prunes nothing: retire
// drops the oldest finished jobs past the retention bound.
func (s *Server) remember(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
}

// lookup returns the job registered under id.
func (s *Server) lookup(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retire marks j finished for retention accounting and prunes the
// oldest finished jobs beyond the configured bound.
func (s *Server) retire(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.JobRetention {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// runJob is the worker body: it executes one dispatched job end to end
// — the batch-stall fault site, the deadline shed check, the
// worker-panic fault site, registry dispatch under the job's context
// and tenant, and result classification — and accounts the busy-worker
// gauge. It is the worker's panic boundary: a panic (a worker bug, or
// the injected worker-panic fault) fails this job alone and the worker
// keeps serving.
func (s *Server) runJob(j *job) {
	s.metrics.WorkersBusy.Set(s.busy.Add(1))
	defer func() { s.metrics.WorkersBusy.Set(s.busy.Add(-1)) }()
	defer s.retire(j)
	defer func() {
		if rec := recover(); rec != nil {
			se := core.PanicToError(string(j.alg), rec)
			s.solveM.PanicsRecovered.Add(1)
			j.tc.Event("solve.fallback", "service/worker: "+se.Error(), 0)
			s.flight.Incident(j.tc.TraceID(), "worker panic: "+se.Error())
			j.finish(Result{Status: StatusError, Error: se.Error()})
		}
	}()

	if s.cfg.Injector != nil {
		// A Stalling rule sleeps here, holding this job (and its worker)
		// toward its deadline — the modeled stalled queue.
		s.cfg.Injector.Inject(SiteBatchStall)
	}
	// The scheduler wait, stamped retroactively: admission-to-dispatch
	// (the batch span is zero-length at admission).
	queueWait := time.Since(j.enqueued)
	j.tc.Observe("schedule", j.enqueued, queueWait)
	if j.expired(time.Now()) {
		s.sched.shedStats(j.tenant)
		s.shedExpired(j, queueWait)
		return
	}
	if s.cfg.Injector != nil {
		// A Panicking rule crashes here; the deferred recover contains it.
		core.InjectTraced(s.cfg.Injector, SiteWorkerPanic, j.tc.TraceID())
	}

	// The job's context is derived once: the server's base context,
	// bounded by the job's deadline when it has one, so a portfolio's
	// members all poll the same timer.
	ctx := s.baseCtx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	fs := j.tc.Start("solve")
	solveStart := time.Now()
	opts := &core.SolveOptions{
		Ctx:             ctx,
		Tenant:          j.tenant,
		Metrics:         s.solveM,
		Sampler:         s.cfg.Sampler,
		Injector:        s.cfg.Injector,
		TraceCtx:        fs.Context(),
		PartialOnCancel: true,
		Cache:           s.solveCache,
	}
	var (
		c      core.Coloring
		winner heuristics.Algorithm
		err    error
	)
	if j.alg == algBest {
		c, winner, err = heuristics.Best(j.stencil, opts)
	} else {
		winner = j.alg
		c, err = heuristics.Run(j.alg, j.stencil, opts)
	}
	solveWall := time.Since(solveStart)

	res := Result{
		Alg:     string(winner),
		QueueMS: float64(queueWait.Microseconds()) / 1000,
	}
	switch {
	case err == nil:
		res.Status = StatusDone
		res.MaxColor = c.MaxColor(j.stencil)
		res.Starts = c.Start
	case errors.Is(err, core.ErrPartial):
		// The deadline expired mid-portfolio: the coloring is complete
		// and valid, only the portfolio sweep was cut short.
		res.Status = StatusDone
		res.Partial = true
		res.MaxColor = c.MaxColor(j.stencil)
		res.Starts = c.Start
		res.Error = err.Error()
	default:
		res.Status = StatusError
		res.Error = err.Error()
		s.flight.Incident(j.tc.TraceID(), "solve error: "+res.Error)
	}
	fs.EndDetail(res.Status, res.MaxColor)
	j.finish(res)
	snap := j.snapshot()
	total := time.Duration(snap.WallMS * float64(time.Millisecond))
	s.metrics.RequestSeconds.Observe(total.Seconds())
	trace := j.tc.TraceID()
	s.slo.Queue.ObserveExemplar(queueWait.Seconds(), trace)
	s.slo.Solve.ObserveExemplar(solveWall.Seconds(), trace)
	s.slo.Total.ObserveExemplar(total.Seconds(), trace)
	s.sched.observeSLO(j.tenant, queueWait, solveWall, total, res.Partial)
}

// shedExpired finishes a job whose deadline passed while it waited in
// the fair queue — the in-queue face of the shedding policy (the
// mid-solve face returns a partial result instead).
func (s *Server) shedExpired(j *job, queueWait time.Duration) {
	reason := fmt.Sprintf("deadline expired after %.1fms queued: shed instead of running a doomed solve (mid-solve expiry would return a partial result; see ErrPartial)",
		float64(queueWait.Microseconds())/1000)
	j.tc.Event("service.shed", reason, 0)
	s.flight.Incident(j.tc.TraceID(), "shed: "+reason)
	j.finish(Result{Status: StatusShed, Error: reason,
		QueueMS: float64(queueWait.Microseconds()) / 1000})
}

// Stats exposes the scheduler's per-tenant accounting (for /healthz and
// the fairness tests).
func (s *Server) Stats() []TenantStats { return s.sched.stats() }

// Cache returns the server's result cache, or nil when Config.CacheBytes
// disabled it (for /healthz and the cache e2e tests).
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// Flight returns the server's flight recorder (never nil) so embedders
// can mount obsv.FlightHandler, attach an Export stream or a chaos
// injector before the first request, or dump incidents on shutdown.
func (s *Server) Flight() *obsv.FlightRecorder { return s.flight }
