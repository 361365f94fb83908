// Package service is the solve daemon: it turns the batch solver
// pipeline into a long-running, multi-tenant HTTP service, layered
// strictly as transport → fair scheduler → solver.
//
//   - The transport is an HTTP/JSON job API: POST /solve admits a job
//     (synchronous by default, async with {"async": true}), GET
//     /jobs/{id} polls one, GET /healthz reports queue and per-tenant
//     state, and /metrics serves the Prometheus registry next to it.
//   - The scheduler is a bounded worker pool with per-tenant weighted
//     fair queuing: admission appends each job to its tenant's FIFO,
//     and a free worker takes one job at a time — the front job of the
//     active tenant with the least weight-normalized served work — so no
//     job waits while a worker is idle and one noisy tenant cannot
//     starve the rest. Jobs share no solve work, so nothing groups
//     them.
//   - The solver layer is the existing registry dispatch
//     (heuristics.Run / heuristics.Best) under one context per job,
//     bounded by the job's deadline, with SolveOptions.Tenant set.
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
