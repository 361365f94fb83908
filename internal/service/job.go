package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
)

// Request is the JSON body of POST /solve. An instance arrives either
// structured (X, Y[, Z] plus row-major Weights) or as the ivc2d/ivc3d
// text format in Instance; exactly one of the two forms must be set.
type Request struct {
	// Tenant names the requesting tenant for fair queuing and
	// accounting; empty means the anonymous "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Alg is the registry algorithm to run ("GLL", "BDP", ...), or
	// "best" for the paper-portfolio reduction; empty defaults to
	// "best".
	Alg string `json:"alg,omitempty"`
	// X, Y, Z are the stencil dimensions of a structured instance;
	// Z == 0 means a 2D (9-pt) instance.
	X int `json:"x,omitempty"`
	// Y is the second dimension.
	Y int `json:"y,omitempty"`
	// Z is the third dimension (0 for 2D instances; negative is
	// malformed).
	Z int `json:"z,omitempty"`
	// Weights are the vertex weights, row-major (x fastest).
	Weights Weights `json:"weights,omitempty"`
	// Instance is the ivc2d/ivc3d text form, an alternative to the
	// structured fields.
	Instance string `json:"instance,omitempty"`
	// TimeoutMS bounds the job in wall-clock milliseconds from
	// admission; 0 uses the server's default. The deadline is the
	// shedding policy: expiry while queued drops the job, expiry
	// mid-portfolio returns the best-so-far coloring as a partial
	// result.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST /solve return 202 with the job id immediately;
	// poll GET /jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
}

// Weights is the weights array of a structured request. It decodes
// straight into one slice, sized by the element count, with no
// reflection, and otherwise reads every body exactly as encoding/json
// reads a plain []int64: elements are JSON integers that fit in int64,
// a null element reads as 0 (under a repeated "weights" key it keeps
// what the earlier array left at that index), an empty array reads as
// an empty slice and null as nil; floats, exponents, strings, nested
// values and overflow are errors. decodeRequest and UnmarshalJSON share
// one array parser, and FuzzParseRequest checks it against the
// reflective decoder.
type Weights []int64

// UnmarshalJSON implements json.Unmarshaler, so an encoding/json reader
// of a Request gets the values decodeRequest gets.
func (w *Weights) UnmarshalJSON(data []byte) error {
	d := decoder{b: data}
	d.space()
	if err := d.weights(w); err != nil {
		return err
	}
	if d.space(); d.i != len(data) {
		return d.fail("weights: trailing data")
	}
	return nil
}

// Job statuses, as reported in Result.Status.
const (
	// StatusQueued marks a job admitted but not yet dispatched.
	StatusQueued = "queued"
	// StatusDone marks a completed job carrying a valid coloring
	// (possibly a best-so-far partial — see Result.Partial).
	StatusDone = "done"
	// StatusError marks a failed job; Result.Error has the cause.
	StatusError = "error"
	// StatusShed marks a job dropped by the overload policy before a
	// solver ran it.
	StatusShed = "shed"
)

// Result is the JSON representation of a job, returned by POST /solve
// and GET /jobs/{id}.
type Result struct {
	// ID is the server-assigned job id.
	ID string `json:"id"`
	// Tenant is the effective tenant the job was accounted to.
	Tenant string `json:"tenant"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Alg is the algorithm that produced the coloring (the portfolio
	// winner for "best" jobs).
	Alg string `json:"alg,omitempty"`
	// MaxColor is the resulting maxcolor of a done job.
	MaxColor int64 `json:"maxcolor,omitempty"`
	// Starts is the per-vertex interval start of a done job.
	Starts []int64 `json:"starts,omitempty"`
	// Partial marks a done job whose deadline expired mid-portfolio: the
	// coloring is complete and valid, but a better algorithm might have
	// won given more time (the core.ErrPartial semantics over HTTP).
	Partial bool `json:"partial,omitempty"`
	// Error carries the failure or shed reason for error/shed jobs, and
	// the ErrPartial text for partial results.
	Error string `json:"error,omitempty"`
	// QueueMS is how long the job waited between admission and dispatch.
	QueueMS float64 `json:"queue_ms,omitempty"`
	// WallMS is the end-to-end admission-to-completion wall time.
	WallMS float64 `json:"wall_ms,omitempty"`
	// TraceID is the job's flight-recorder trace id in canonical hex —
	// paste it into GET /debug/flight?trace=... to see the request's span
	// tree. Empty when the server runs without a flight recorder.
	TraceID string `json:"trace_id,omitempty"`
}

// job is the internal unit flowing transport → fair scheduler → worker,
// and the scheduler's unit of dispatch. The immutable routing fields are
// set at admission; the mutable result is guarded by mu and published by
// closing done.
type job struct {
	id     string
	tenant string
	alg    heuristics.Algorithm // "best" runs the portfolio
	// stencil is the instance to solve; finish drops it, so a retained
	// job holds only its answer. The scheduler and the solve read it
	// before the job finishes.
	stencil  grid.Stencil
	deadline time.Time // zero = unbounded
	enqueued time.Time
	// tc is the job's flight-recorder context, parented under the
	// admission span (nil when the server has no recorder); every later
	// stage records its span against it.
	tc *obsv.TraceContext

	mu       sync.Mutex
	res      Result
	done     chan struct{}
	finished bool
}

// newJob builds the internal job for an admitted request.
func newJob(id, tenant string, alg heuristics.Algorithm, s grid.Stencil, deadline time.Time) *job {
	j := &job{
		id: id, tenant: tenant, alg: alg, stencil: s,
		deadline: deadline, enqueued: time.Now(),
		done: make(chan struct{}),
	}
	j.res = Result{ID: id, Tenant: tenant, Status: StatusQueued}
	return j
}

// snapshot returns a copy of the job's current result.
func (j *job) snapshot() Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res
}

// finish publishes the job's terminal result exactly once and drops the
// instance; later calls are ignored so a racing shutdown path cannot
// overwrite a completion.
func (j *job) finish(res Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	j.stencil = nil
	res.ID, res.Tenant = j.id, j.tenant
	res.WallMS = float64(time.Since(j.enqueued).Microseconds()) / 1000
	if t := j.tc.TraceID(); t != 0 {
		res.TraceID = obsv.FlightID(t)
	}
	j.res = res
	close(j.done)
}

// expired reports whether the job's deadline has passed at now.
func (j *job) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}

// algBest is the portfolio pseudo-algorithm accepted by the job API.
const algBest = heuristics.Algorithm("best")

// parseRequest validates a Request into its routing pieces: effective
// tenant, algorithm, and stencil instance.
func parseRequest(req *Request) (tenant string, alg heuristics.Algorithm, s grid.Stencil, err error) {
	tenant = req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	// A tenant name is a one-line token without '|', so it can appear
	// unescaped in line-oriented output and in '|'-joined keys.
	if strings.ContainsAny(tenant, "|\n") {
		return "", "", nil, fmt.Errorf("invalid tenant %q", tenant)
	}
	s, err = parseInstance(req)
	if err != nil {
		return "", "", nil, err
	}
	alg = heuristics.Algorithm(req.Alg)
	if alg == "" || alg == algBest {
		return tenant, algBest, s, nil
	}
	d, ok := heuristics.Lookup(alg)
	if !ok {
		return "", "", nil, fmt.Errorf("unknown algorithm %q", alg)
	}
	if !d.Dims.Has(s.Dims()) {
		return "", "", nil, fmt.Errorf("%s is %s-only, got a %dD instance", alg, d.Dims, s.Dims())
	}
	return tenant, alg, s, nil
}

// parseInstance builds the stencil from either request form.
func parseInstance(req *Request) (grid.Stencil, error) {
	if req.Instance != "" {
		if req.X != 0 || req.Y != 0 || req.Z != 0 || len(req.Weights) != 0 {
			return nil, fmt.Errorf("give either instance text or x/y/z + weights, not both")
		}
		g2, g3, err := grid.Read(strings.NewReader(req.Instance))
		if err != nil {
			return nil, fmt.Errorf("instance: %w", err)
		}
		if g2 != nil {
			return g2, nil
		}
		return g3, nil
	}
	if req.Z < 0 {
		return nil, fmt.Errorf("negative z dimension %d", req.Z)
	}
	if req.Z > 0 {
		return grid.FromWeights3D(req.X, req.Y, req.Z, req.Weights)
	}
	return grid.FromWeights2D(req.X, req.Y, req.Weights)
}
