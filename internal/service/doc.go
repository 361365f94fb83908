// Package service is the solve daemon: it turns the batch solver
// pipeline into a long-running, multi-tenant HTTP service, layered
// strictly as transport → queue/batcher → scheduler → solver.
//
//   - The transport is an HTTP/JSON job API: POST /solve admits a job
//     (synchronous by default, async with {"async": true}), GET
//     /jobs/{id} polls one, GET /healthz reports queue and per-tenant
//     state, and /metrics serves the Prometheus registry next to it.
//   - The queue/batcher coalesces compatible small requests — same
//     tenant, algorithm, and dimensionality — into batches behind size
//     and max-wait triggers, recording per-item enqueue/flush
//     timestamps.
//   - The scheduler is a bounded worker pool with per-tenant weighted
//     fair queuing: workers always dispatch the batch of the active
//     tenant with the least weight-normalized served work, so one noisy
//     tenant cannot starve the rest.
//   - The solver layer is the existing registry dispatch
//     (heuristics.Run / heuristics.Best) with per-request
//     SolveOptions.Tenant and SolveOptions.Deadline plumbed through.
//
// Overload is shed, never queued unboundedly: admission refuses jobs
// past a per-tenant queue bound, jobs whose deadline expires while
// queued are dropped at dispatch, and jobs whose deadline expires
// mid-portfolio return the best-so-far valid coloring tagged with
// core.ErrPartial (SolveOptions.PartialOnCancel) — the PR 4 deadline
// semantics reused as the service's degradation policy.
//
// The package also exposes the service/* fault sites (enqueue-drop,
// batch-stall, worker-panic) so internal/chaos storms can drive the
// daemon through its shedding and containment paths, and the shared
// HTTP-server/signal scaffolding (NotifySignals, NewHTTPServer,
// Shutdown) that cmd/ivc builds both its -http and -serve modes on.
//
// Observability rides on the obsv stack: ServiceMetrics (service_*),
// the runtime sampler during solves, and the flight recorder, which
// holds each job's spans and events under one trace id. See DESIGN.md
// §13.
package service
