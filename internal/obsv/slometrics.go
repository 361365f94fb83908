package obsv

// SLOBuckets returns the latency bucket ladder shared by the service's
// per-tenant SLO histograms and the registered service_latency_*
// families: 16 geometric steps from 0.5ms to ~16s, wide enough to
// bracket both a cache hit and a storm-delayed solve of a large grid,
// so the p99 interpolation always has a finite bucket to land in.
func SLOBuckets() []float64 {
	return ExponentialBuckets(0.0005, 2, 16)
}

// TenantSLO is one tenant's latency accounting: queue-wait, solver
// wall, and end-to-end total, each an unregistered histogram over
// SLOBuckets. The service scheduler keys these by tenant and /healthz
// reports Quantile estimates from them; the registry stays label-free
// (the aggregate cross-tenant families are SLOMetrics).
type TenantSLO struct {
	// Queue observes admission-to-dispatch wait, in seconds.
	Queue *Histogram
	// Solve observes solver wall time, in seconds.
	Solve *Histogram
	// Total observes admission-to-completion wall time, in seconds.
	Total *Histogram
}

// NewTenantSLO builds one tenant's SLO histograms.
func NewTenantSLO() *TenantSLO {
	return &TenantSLO{
		Queue: NewHistogram(SLOBuckets()),
		Solve: NewHistogram(SLOBuckets()),
		Total: NewHistogram(SLOBuckets()),
	}
}

// SLOMetrics is the registered cross-tenant face of the SLO surface:
// the service_latency_{queue,solve,total}_seconds histogram families,
// observed with trace-id exemplars so a slow bucket in a Prometheus
// scrape links straight to a request in the flight recorder. A nil
// registry yields no-op histograms, the usual disabled contract.
type SLOMetrics struct {
	// Queue is service_latency_queue_seconds.
	Queue *Histogram
	// Solve is service_latency_solve_seconds.
	Solve *Histogram
	// Total is service_latency_total_seconds.
	Total *Histogram
}

// NewSLOMetrics registers (or re-attaches to) the service latency
// families on r.
func NewSLOMetrics(r *Registry) *SLOMetrics {
	return &SLOMetrics{
		Queue: r.Histogram("service_latency_queue_seconds",
			"Admission-to-dispatch queue wait per job, in seconds.", SLOBuckets()),
		Solve: r.Histogram("service_latency_solve_seconds",
			"Solver wall time per dispatched job, in seconds.", SLOBuckets()),
		Total: r.Histogram("service_latency_total_seconds",
			"End-to-end admission-to-completion wall time per job, in seconds.", SLOBuckets()),
	}
}
