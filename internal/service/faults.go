package service

import "stencilivc/internal/core"

// The service layer's fault-injection sites. Schedules built by
// internal/chaos attach to these names to storm the daemon the same way
// they storm the solvers.
const (
	// SiteEnqueueDrop fires once per admission attempt, after the
	// per-tenant queue bound passed; when it fires the job is shed as if
	// the queue were full, exercising the transport's shed path without
	// real pressure.
	SiteEnqueueDrop = core.FaultSite("service/enqueue-drop")
	// SiteBatchStall fires once per job dispatch, when a scheduler
	// worker takes the job and before its deadline check. A Stalling
	// rule holds the job (and its worker) — the modeled stalled queue
	// that drives jobs past their deadlines and into the shed policy,
	// while the jobs behind it wait their turn.
	SiteBatchStall = core.FaultSite("service/batch-stall")
	// SiteWorkerPanic fires once per job dispatch inside a scheduler
	// worker, before the solver runs. A Panicking rule crashes the
	// worker's job; the worker contains the panic into a typed
	// SolveError, fails that job alone, and keeps serving.
	SiteWorkerPanic = core.FaultSite("service/worker-panic")
)

func init() {
	core.RegisterFaultSite(SiteEnqueueDrop,
		"service admission, once per attempt: firing sheds the job as if the tenant queue were full")
	core.RegisterFaultSite(SiteBatchStall,
		"service scheduler worker, once per job dispatch before the deadline check: a Stalling rule holds the job toward its deadline")
	core.RegisterFaultSite(SiteWorkerPanic,
		"service scheduler worker, once per job dispatch: a Panicking rule crashes the job; contained, the worker keeps serving")
}
