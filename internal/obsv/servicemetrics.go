package obsv

// ServiceMetrics bundles the solve-service metric taxonomy: the
// counters, gauges, and histograms the internal/service daemon layers —
// transport admission and the multi-tenant fair scheduler — feed. It mirrors the SolveMetrics contract: carried by
// whoever owns the service, and a nil *ServiceMetrics disables all of
// them (every field method is nil-receiver-safe, so the service records
// unconditionally).
type ServiceMetrics struct {
	// QueueDepth is the number of admitted solve jobs waiting to be
	// dispatched to a worker, across all tenants — service_queue_depth.
	QueueDepth *Gauge
	// WorkersBusy is the number of scheduler workers currently running a
	// job — service_workers_busy.
	WorkersBusy *Gauge
	// BatchSize is the distribution of jobs per batch at enqueue —
	// service_batch_size. A job is its own batch, so it observes 1.
	BatchSize *Histogram
	// BatchWaitSeconds is the per-job distribution of admission-to-flush
	// wait — service_batch_wait_seconds. A job is flushed at admission,
	// so it observes 0.
	BatchWaitSeconds *Histogram
	// RequestSeconds is the end-to-end admission-to-completion latency
	// per job — service_request_seconds.
	RequestSeconds *Histogram
	// Batches counts batches enqueued to the fair scheduler, one per
	// admitted job — service_batches_total.
	Batches *Counter
	// Admitted counts solve jobs admitted past the per-tenant queue
	// bound, summed over tenants — service_tenant_admitted_total.
	Admitted *Counter
	// Shed counts solve jobs refused or dropped by the overload policy
	// (queue bound hit, deadline expired while queued, enqueue-drop
	// fault), summed over tenants — service_tenant_shed_total.
	Shed *Counter
}

// NewServiceMetrics registers the service taxonomy in r and returns the
// bundle. A nil registry yields a non-nil bundle of nil (disabled)
// metrics, which callers may still pass around safely.
func NewServiceMetrics(r *Registry) *ServiceMetrics {
	return &ServiceMetrics{
		QueueDepth: r.Gauge("service_queue_depth",
			"Admitted solve jobs waiting for a scheduler worker, across all tenants."),
		WorkersBusy: r.Gauge("service_workers_busy",
			"Scheduler workers currently running a batch."),
		// Every batch holds one job; the power-of-two buckets are part of
		// the family's exposed shape.
		BatchSize: r.Histogram("service_batch_size",
			"Jobs per batch at enqueue; a job is its own batch, so every observation is 1.",
			[]float64{1, 2, 4, 8, 16, 32}),
		BatchWaitSeconds: r.Histogram("service_batch_wait_seconds",
			"Per-job wait between admission and batch flush, in seconds; a job is flushed at admission, so every observation is 0.",
			ExponentialBuckets(0.0001, 4, 8)),
		RequestSeconds: r.Histogram("service_request_seconds",
			"End-to-end latency from admission to job completion, in seconds.",
			ExponentialBuckets(0.0001, 4, 10)),
		Batches: r.Counter("service_batches_total",
			"Batches enqueued to the fair scheduler, one per admitted job."),
		Admitted: r.Counter("service_tenant_admitted_total",
			"Solve jobs admitted past the per-tenant queue bound, summed over tenants."),
		Shed: r.Counter("service_tenant_shed_total",
			"Solve jobs shed by the overload policy instead of queuing unboundedly, summed over tenants."),
	}
}
