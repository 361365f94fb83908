package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
)

// newTestService boots a server plus an httptest transport and tears
// both down with the test.
func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx) // double-close in tests that Close explicitly is fine
	})
	return srv, ts
}

// postSolve POSTs req to the test server and decodes the Result.
func postSolve(t *testing.T, base string, req Request) (int, Result) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode /solve response: %v", err)
	}
	return resp.StatusCode, res
}

// pollJob polls GET /jobs/{id} until the job leaves the queue.
func pollJob(t *testing.T, base, id string) (int, Result) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /jobs/%s: %v", id, err)
		}
		if res.Status != StatusQueued {
			return resp.StatusCode, res
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still queued after 15s", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getHealthz fetches and decodes GET /healthz.
func getHealthz(t *testing.T, base string) healthz {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// gridWeights returns the weights of an n×n test grid as a fresh slice
// (the request form of testGrid).
func gridWeights(n int) []int64 {
	w := make([]int64, n*n)
	for i := range w {
		w[i] = int64(i%7 + 1)
	}
	return w
}

// TestServiceEquivalence checks the acceptance contract that a solve
// through the full transport → fair scheduler → solver stack returns
// exactly what a direct heuristics.Run/Best call returns, in 2D and 3D,
// and that the returned starts form a valid coloring.
func TestServiceEquivalence(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})

	w3 := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	g2, err := grid.FromWeights2D(8, 7, gridWeights(8)[:56])
	if err != nil {
		t.Fatal(err)
	}
	g3, err := grid.FromWeights3D(3, 3, 2, w3)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  Request
		s    grid.Stencil
	}{
		{"GLL-2D", Request{Alg: "GLL", X: 8, Y: 7, Weights: gridWeights(8)[:56]}, g2},
		{"BDP-2D", Request{Alg: "BDP", X: 8, Y: 7, Weights: gridWeights(8)[:56]}, g2},
		{"best-2D", Request{Alg: "best", X: 8, Y: 7, Weights: gridWeights(8)[:56]}, g2},
		{"GLL-3D", Request{Alg: "GLL", X: 3, Y: 3, Z: 2, Weights: w3}, g3},
		{"best-3D", Request{X: 3, Y: 3, Z: 2, Weights: w3}, g3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want int64
			if tc.req.Alg == "" || tc.req.Alg == "best" {
				c, _, err := heuristics.Best(tc.s, nil)
				if err != nil {
					t.Fatal(err)
				}
				want = c.MaxColor(tc.s)
			} else {
				c, err := heuristics.Run(heuristics.Algorithm(tc.req.Alg), tc.s, nil)
				if err != nil {
					t.Fatal(err)
				}
				want = c.MaxColor(tc.s)
			}
			code, res := postSolve(t, ts.URL, tc.req)
			if code != http.StatusOK || res.Status != StatusDone {
				t.Fatalf("status %d / %q (%s), want 200 done", code, res.Status, res.Error)
			}
			if res.MaxColor != want {
				t.Fatalf("service maxcolor %d != direct %d", res.MaxColor, want)
			}
			c := core.Coloring{Start: res.Starts}
			if err := c.Validate(tc.s); err != nil {
				t.Fatalf("service returned an invalid coloring: %v", err)
			}
		})
	}
}

// TestServiceConcurrentTenants is the -race fairness test: several
// tenants hammer the API concurrently over HTTP; every job must finish
// with a valid coloring (no starvation, no sheds below the bounds) and
// the scheduler's accounting must add up.
func TestServiceConcurrentTenants(t *testing.T) {
	reg := obsv.NewRegistry()
	_, ts := newTestService(t, Config{
		Workers:  4,
		Registry: reg,
		TenantWeights: map[string]float64{
			"beta": 2,
		},
	})
	tenants := []string{"alpha", "beta", "gamma"}
	const jobsPer = 6

	want8, err := heuristics.Run("GLL", mustGrid2D(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMC := want8.MaxColor(mustGrid2D(t, 8))

	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*jobsPer)
	for _, tenant := range tenants {
		for i := 0; i < jobsPer; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				code, res := postSolve(t, ts.URL, Request{
					Tenant: tenant, Alg: "GLL", X: 8, Y: 8, Weights: gridWeights(8),
				})
				if code != http.StatusOK || res.Status != StatusDone {
					errs <- fmt.Errorf("tenant %s: status %d/%q: %s", tenant, code, res.Status, res.Error)
					return
				}
				if res.MaxColor != wantMC {
					errs <- fmt.Errorf("tenant %s: maxcolor %d, want %d", tenant, res.MaxColor, wantMC)
					return
				}
				c := core.Coloring{Start: res.Starts}
				if err := c.Validate(mustGrid2D(t, 8)); err != nil {
					errs <- fmt.Errorf("tenant %s: invalid coloring: %v", tenant, err)
				}
			}(tenant)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	h := getHealthz(t, ts.URL)
	if h.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", h.Status)
	}
	seen := map[string]TenantStats{}
	for _, st := range h.Tenants {
		seen[st.Tenant] = st
	}
	for _, tenant := range tenants {
		st, ok := seen[tenant]
		if !ok {
			t.Fatalf("tenant %s missing from healthz accounting", tenant)
		}
		if st.Admitted != jobsPer || st.Shed != 0 || st.Queued != 0 {
			t.Errorf("tenant %s stats %+v, want admitted=%d shed=0 queued=0", tenant, st, jobsPer)
		}
		if st.ServedWork == 0 {
			t.Errorf("tenant %s has zero served work after %d solves", tenant, jobsPer)
		}
	}
	if seen["beta"].Weight != 2 {
		t.Errorf("beta weight %v, want the configured 2", seen["beta"].Weight)
	}
}

// mustGrid2D builds the canonical 8×8 comparison grid.
func mustGrid2D(t *testing.T, n int) grid.Stencil {
	t.Helper()
	g, err := grid.FromWeights2D(n, n, gridWeights(n))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestServiceBatchStallShedsExpired storms the workers with an injected
// stall on every dispatch: jobs pile up behind the stalled workers, their
// deadlines pass, and the dispatch-time check sheds them instead of
// burning workers on doomed solves. The front of the queue, stalled but
// not yet expired, must still complete.
func TestServiceBatchStallShedsExpired(t *testing.T) {
	inj := chaos.New(7)
	inj.EveryNth(SiteBatchStall, 1, 0).Stalling(SiteBatchStall, 60*time.Millisecond)
	_, ts := newTestService(t, Config{
		Workers:  2,
		Injector: inj,
	})

	const jobs = 8
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		code, res := postSolve(t, ts.URL, Request{
			Tenant: "storm", Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4),
			TimeoutMS: 120, Async: true,
		})
		if code != http.StatusAccepted {
			t.Fatalf("async submit %d: status %d, want 202", i, code)
		}
		ids = append(ids, res.ID)
	}

	done, shed := 0, 0
	for _, id := range ids {
		code, res := pollJob(t, ts.URL, id)
		switch res.Status {
		case StatusDone:
			done++
		case StatusShed:
			shed++
			if code != http.StatusServiceUnavailable {
				t.Errorf("shed job %s returned %d, want 503", id, code)
			}
			if !strings.Contains(res.Error, "deadline expired") {
				t.Errorf("shed job %s reason %q, want a deadline-expired shed", id, res.Error)
			}
		case StatusError:
			// A job dispatched right at its deadline passes the
			// dispatch-time check, then the solver's first context poll
			// fails it: a single-algorithm job has no partial to return,
			// so it answers 504.
			if code != http.StatusGatewayTimeout || !strings.Contains(res.Error, "deadline exceeded") {
				t.Errorf("job %s ended %q/%d (%s), want done, shed, or a 504 deadline error", id, res.Status, code, res.Error)
			}
		default:
			t.Errorf("job %s ended %q (%s), want done, shed, or a 504 deadline error", id, res.Status, res.Error)
		}
	}
	// Each dispatch stalls its worker 60ms before the deadline check, so
	// with two workers jobs 2k+1 and 2k+2 reach the check ~60(k+1)ms
	// after submission against a 120ms deadline: the first pair must
	// survive, the second lands on the deadline, and the tail must shed.
	if done == 0 {
		t.Error("every job shed; the front of the stalled queue should still complete")
	}
	if shed < 3 {
		t.Errorf("only %d jobs shed under the stall storm, want at least 3", shed)
	}
	h := getHealthz(t, ts.URL)
	for _, st := range h.Tenants {
		if st.Tenant == "storm" && int(st.Shed) != shed {
			t.Errorf("healthz shed=%d, observed %d shed jobs", st.Shed, shed)
		}
	}
}

// TestServiceDeadlinePartial drives a "best" portfolio job into its
// deadline mid-run: at least one algorithm completes, the rest are cut
// off, and the service answers 200 with the best-so-far coloring marked
// partial (core.ErrPartial surfaced over HTTP) rather than failing the
// job.
func TestServiceDeadlinePartial(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	for _, n := range []int{80, 120, 180, 260, 380, 540} {
		g, err := grid.FromWeights2D(n, n, gridWeights(n))
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, err := heuristics.Run("GLL", g, nil); err != nil {
			t.Fatal(err)
		}
		gll := time.Since(t0)
		t0 = time.Now()
		if _, _, err := heuristics.Best(g, nil); err != nil {
			t.Fatal(err)
		}
		full := time.Since(t0)

		// Budget enough for GLL with margin but well under the full
		// portfolio, so the deadline lands mid-sweep. If this machine
		// runs the whole portfolio too close to the GLL budget, grow the
		// instance and try again. The portfolio runs about 8 GLLs of
		// work, so a size qualifies only once the fixed 5 ms is small
		// against GLL: twice the budget is 6 GLLs plus 10 ms.
		timeout := 3*gll + 5*time.Millisecond
		if full < 2*timeout {
			continue
		}
		code, res := postSolve(t, ts.URL, Request{
			Alg: "best", X: n, Y: n, Weights: gridWeights(n),
			TimeoutMS: timeout.Milliseconds(),
		})
		if res.Status != StatusDone || !res.Partial {
			// Timing hiccup (the portfolio finished, or GLL overran);
			// try a larger instance.
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("partial result returned %d, want 200", code)
		}
		if !strings.Contains(res.Error, "algorithms completed") {
			t.Errorf("partial result error %q, want the ErrPartial text", res.Error)
		}
		c := core.Coloring{Start: res.Starts}
		if err := c.Validate(g); err != nil {
			t.Fatalf("partial coloring invalid: %v", err)
		}
		return
	}
	t.Fatal("no instance size produced a mid-portfolio deadline partial")
}

// TestServiceWorkerPanicContained injects a panic into the first
// dispatched job: that job fails with a typed error, the worker
// survives, and the next job solves normally.
func TestServiceWorkerPanicContained(t *testing.T) {
	inj := chaos.New(3)
	inj.OnNth(SiteWorkerPanic, 1).Panicking(SiteWorkerPanic)
	_, ts := newTestService(t, Config{Workers: 1, Injector: inj})

	code, res := postSolve(t, ts.URL, Request{Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4)})
	if code != http.StatusInternalServerError || res.Status != StatusError {
		t.Fatalf("panicked job: status %d/%q, want 500 error", code, res.Status)
	}
	if res.Error == "" {
		t.Fatal("panicked job carries no error text")
	}
	code, res = postSolve(t, ts.URL, Request{Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4)})
	if code != http.StatusOK || res.Status != StatusDone {
		t.Fatalf("job after contained panic: status %d/%q (%s), want 200 done", code, res.Status, res.Error)
	}
}

// TestServiceEnqueueDrop injects a drop between admission and the fair
// queue: the job is shed (503), accounting stays consistent, and the
// next job goes through.
func TestServiceEnqueueDrop(t *testing.T) {
	inj := chaos.New(5)
	inj.OnNth(SiteEnqueueDrop, 1)
	_, ts := newTestService(t, Config{Workers: 1, Injector: inj})

	code, res := postSolve(t, ts.URL, Request{Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4)})
	if code != http.StatusServiceUnavailable || res.Status != StatusShed {
		t.Fatalf("dropped job: status %d/%q, want 503 shed", code, res.Status)
	}
	if !strings.Contains(res.Error, "injected enqueue drop") {
		t.Errorf("drop reason %q, want the injected-drop reason", res.Error)
	}
	code, res = postSolve(t, ts.URL, Request{Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4)})
	if code != http.StatusOK || res.Status != StatusDone {
		t.Fatalf("job after drop: status %d/%q (%s), want 200 done", code, res.Status, res.Error)
	}
	h := getHealthz(t, ts.URL)
	if len(h.Tenants) != 1 || h.Tenants[0].Shed != 1 || h.Tenants[0].Admitted != 2 {
		t.Fatalf("accounting %+v, want admitted=2 shed=1", h.Tenants)
	}
}

// TestServiceQueueBoundSheds fills a tenant's queue bound behind a
// stalled worker: admissions past the bound answer 503 immediately —
// the service sheds under overload instead of queuing unboundedly.
func TestServiceQueueBoundSheds(t *testing.T) {
	inj := chaos.New(11)
	inj.EveryNth(SiteBatchStall, 1, 0).Stalling(SiteBatchStall, 200*time.Millisecond)
	_, ts := newTestService(t, Config{
		Workers: 1, MaxQueuedPerTenant: 2, Injector: inj,
	})
	full := 0
	for i := 0; i < 4; i++ {
		code, res := postSolve(t, ts.URL, Request{
			Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4), Async: true, TimeoutMS: 5000,
		})
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(res.Error, "queue full") {
				t.Errorf("shed reason %q, want queue full", res.Error)
			}
			full++
		}
	}
	if full == 0 {
		t.Fatal("4 rapid submissions against a bound of 2 never shed")
	}
}

// TestServiceWorkConserving: a free worker takes the next admitted job
// at once. Two identical jobs submitted back to back to two idle workers
// run side by side, so with every dispatch stalled 200ms both finish
// after one stall, not two.
func TestServiceWorkConserving(t *testing.T) {
	inj := chaos.New(13)
	inj.EveryNth(SiteWorkerPanic, 1, 0).Stalling(SiteWorkerPanic, 200*time.Millisecond)
	srv, _ := newTestService(t, Config{Workers: 2, Injector: inj})

	req := Request{Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4)}
	start := time.Now()
	var jobs []*job
	for i := 0; i < 2; i++ {
		j, err := srv.Submit(&req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s did not finish", j.id)
		}
		if res := j.snapshot(); res.Status != StatusDone {
			t.Fatalf("job %s ended %q (%s), want done", j.id, res.Status, res.Error)
		}
	}
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Fatalf("two jobs on two idle workers took %v, want one 200ms stall (under 300ms)", took)
	}
}

// TestServiceHTTPValidation covers the transport's error mapping.
func TestServiceHTTPValidation(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})

	for _, body := range []string{
		"{nope",
		`{"alg":"GLL","shards":4,"x":2,"y":2,"weights":[1,2,3,4]}`,  // unknown field
		`{"alg":"GLL","x":2,"y":2,"weights":[1,2,3,4]}{"alg":"BD"}`, // trailing object
	} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	cases := []struct {
		name string
		req  Request
	}{
		{"unknown-alg", Request{Alg: "NOPE", X: 2, Y: 2, Weights: []int64{1, 2, 3, 4}}},
		{"dims-mismatch", Request{Alg: "BDL", X: 2, Y: 2, Weights: []int64{1, 2, 3, 4}}},
		{"bad-tenant", Request{Tenant: "a|b", Alg: "GLL", X: 2, Y: 2, Weights: []int64{1, 2, 3, 4}}},
		{"both-forms", Request{Alg: "GLL", X: 2, Y: 2, Weights: []int64{1, 2, 3, 4}, Instance: "ivc2d 1 1\n1\n"}},
		{"bad-grid", Request{Alg: "GLL", X: 3, Y: 2, Weights: []int64{1}}},
		{"oversized-dims", Request{Alg: "GLL", X: 16384, Y: 16384}},
		{"overflow-text", Request{Alg: "GLL", Instance: "ivc2d 2 1\n9223372036854775807 9223372036854775807\n"}},
		{"negative-z", Request{Alg: "GLL", X: 2, Y: 2, Z: -1, Weights: []int64{1, 2, 3, 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := postSolveRaw(t, ts.URL, tc.req)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// postSolveRaw POSTs and returns only the status and raw body (for
// requests expected to fail before a Result exists).
func postSolveRaw(t *testing.T, base string, req Request) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestServiceInstanceTextForm accepts the ivc2d text format as an
// alternative to structured weights.
func TestServiceInstanceTextForm(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	code, res := postSolve(t, ts.URL, Request{
		Alg: "GLL", Instance: "ivc2d 2 2\n1 2\n3 4\n",
	})
	if code != http.StatusOK || res.Status != StatusDone {
		t.Fatalf("text-form solve: status %d/%q (%s)", code, res.Status, res.Error)
	}
	if len(res.Starts) != 4 {
		t.Fatalf("got %d starts, want 4", len(res.Starts))
	}
}

// TestServiceDrainingSheds verifies shutdown behavior: after Close the
// daemon answers /healthz with "draining" and sheds new submissions
// instead of accepting work it will not run.
func TestServiceDrainingSheds(t *testing.T) {
	srv, ts := newTestService(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	h := getHealthz(t, ts.URL)
	if h.Status != "draining" {
		t.Fatalf("healthz after Close: %q, want draining", h.Status)
	}
	code, res := postSolve(t, ts.URL, Request{Alg: "GLL", X: 2, Y: 2, Weights: []int64{1, 2, 3, 4}})
	if code != http.StatusServiceUnavailable || res.Status != StatusShed {
		t.Fatalf("submit while draining: status %d/%q, want 503 shed", code, res.Status)
	}
	if !strings.Contains(res.Error, "draining") {
		t.Errorf("shed reason %q, want draining", res.Error)
	}
}

// TestServiceShedJobsRetire: a job shed at admission — by a draining
// server or an injected enqueue drop — leaves the job table like any
// finished job, retired exactly once, so refused submissions cannot pin
// their grids past JobRetention.
func TestServiceShedJobsRetire(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		drain bool
	}{
		{"draining", Config{Workers: 1, JobRetention: 4}, true},
		{"enqueue-drop", Config{Workers: 1, JobRetention: 4,
			Injector: chaos.New(1).EveryNth(SiteEnqueueDrop, 1, 0)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestService(t, tc.cfg)
			if tc.drain {
				if err := srv.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				j, err := srv.Submit(&Request{Alg: "GLL", X: 2, Y: 2, Weights: []int64{1, 2, 3, 4}})
				if err != nil {
					t.Fatal(err)
				}
				if st := j.snapshot().Status; st != StatusShed {
					t.Fatalf("submission %d: status %q, want shed", i, st)
				}
			}
			srv.jobsMu.Lock()
			defer srv.jobsMu.Unlock()
			if len(srv.jobs) != 4 || len(srv.doneOrder) != 4 {
				t.Errorf("job table holds %d jobs (%d retired), want the 4 JobRetention keeps",
					len(srv.jobs), len(srv.doneOrder))
			}
			seen := map[string]bool{}
			for _, id := range srv.doneOrder {
				if seen[id] || srv.jobs[id] == nil {
					t.Errorf("retired ids %v: %s retired twice or not retained", srv.doneOrder, id)
				}
				seen[id] = true
			}
		})
	}
}
