package service

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
	"stencilivc/internal/parallel"
)

// flightRec mirrors the GET /debug/flight record wire shape.
type flightRec struct {
	Trace  string  `json:"trace"`
	Span   string  `json:"span"`
	Parent string  `json:"parent"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Detail string  `json:"detail"`
	Tenant string  `json:"tenant"`
	Job    string  `json:"job"`
	Arg    int64   `json:"arg"`
	WallMS float64 `json:"wall_ms"`
}

// flightDump mirrors the GET /debug/flight response body.
type flightDump struct {
	Entries   int         `json:"entries"`
	Records   []flightRec `json:"records"`
	Incidents []struct {
		Trace  string `json:"trace"`
		Reason string `json:"reason"`
	} `json:"incidents"`
}

// getFlight fetches and decodes GET /debug/flight with the given query.
func getFlight(t *testing.T, base, query string) flightDump {
	t.Helper()
	url := base + "/debug/flight"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight?%s: status %d", query, resp.StatusCode)
	}
	var dump flightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

// findSpan returns the first span record with the given name, or fails.
func findSpan(t *testing.T, recs []flightRec, name string) flightRec {
	t.Helper()
	for _, r := range recs {
		if r.Kind == "span" && r.Name == name {
			return r
		}
	}
	t.Fatalf("no %q span among %d records", name, len(recs))
	return flightRec{}
}

// TestServiceTraceSpanTree submits one solve through the full HTTP stack
// and asserts the acceptance-contract span tree: the result carries a
// trace id, and /debug/flight filtered by job id shows admission as the
// root with batch, schedule, and solve parented under it and the
// registry's solve:GLL span under solve — one connected tree per
// request. The tenant's /healthz SLO quantiles must be live afterwards.
func TestServiceTraceSpanTree(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})

	code, res := postSolve(t, ts.URL, Request{
		Tenant: "trace-team", Alg: "GLL", X: 8, Y: 8, Weights: gridWeights(8),
	})
	if code != http.StatusOK || res.Status != StatusDone {
		t.Fatalf("solve: status %d/%q (%s)", code, res.Status, res.Error)
	}
	if len(res.TraceID) != 16 || res.TraceID == obsv.FlightID(0) {
		t.Fatalf("result trace id %q, want 16 hex digits", res.TraceID)
	}

	dump := getFlight(t, ts.URL, "job="+res.ID)
	for _, r := range dump.Records {
		if r.Trace != res.TraceID {
			t.Errorf("record %s/%s carries trace %s, want %s", r.Kind, r.Name, r.Trace, res.TraceID)
		}
		if r.Job != res.ID || r.Tenant != "trace-team" {
			t.Errorf("record %s/%s identity %s/%s, want %s/trace-team", r.Kind, r.Name, r.Job, r.Tenant, res.ID)
		}
	}
	adm := findSpan(t, dump.Records, "admission")
	if adm.Parent != "" {
		t.Errorf("admission span has parent %s, want none (the root)", adm.Parent)
	}
	for _, stage := range []string{"batch", "schedule", "solve"} {
		sp := findSpan(t, dump.Records, stage)
		if sp.Parent != adm.Span {
			t.Errorf("%s span parent %s, want the admission span %s", stage, sp.Parent, adm.Span)
		}
	}
	solve := findSpan(t, dump.Records, "solve")
	if solve.Detail != StatusDone || solve.Arg != res.MaxColor {
		t.Errorf("solve span detail/arg %q/%d, want %q/%d", solve.Detail, solve.Arg, StatusDone, res.MaxColor)
	}
	inner := findSpan(t, dump.Records, "solve:GLL")
	if inner.Parent != solve.Span {
		t.Errorf("solve:GLL parent %s, want the solve span %s", inner.Parent, solve.Span)
	}

	// The same tree must come back when filtering by trace id.
	byTrace := getFlight(t, ts.URL, "trace="+res.TraceID)
	if len(byTrace.Records) != len(dump.Records) {
		t.Errorf("trace filter returned %d records, job filter %d", len(byTrace.Records), len(dump.Records))
	}

	h := getHealthz(t, ts.URL)
	var st TenantStats
	for _, s := range h.Tenants {
		if s.Tenant == "trace-team" {
			st = s
		}
	}
	if st.Tenant == "" {
		t.Fatal("trace-team missing from healthz")
	}
	if st.P50MS <= 0 || st.P95MS < st.P50MS || st.P99MS < st.P95MS {
		t.Errorf("SLO quantiles p50=%v p95=%v p99=%v, want 0 < p50 <= p95 <= p99", st.P50MS, st.P95MS, st.P99MS)
	}
	if st.P50SolveMS <= 0 {
		t.Errorf("p50 solve %v, want > 0 after a completed solve", st.P50SolveMS)
	}
}

// TestServiceStormFlightScrape is the -race acceptance test of the
// tracing tier: chaos-stormed PGLL and BDP jobs run through the service
// while concurrent scrapers hammer /debug/flight and /healthz. Every
// job must still return a valid coloring, solver-internal phase spans
// must nest under the request's solve span — down to PGLL's tiles and
// repair rounds — and the traced service/worker-panic fault must be
// recorded under the trace of the job it hit.
func TestServiceStormFlightScrape(t *testing.T) {
	rec := obsv.NewFlightRecorder(8192, nil)
	// A 128² grid is 2×2 default PGLL tiles, so a forced halo misread
	// plants real cross-tile conflicts for the repair rounds — and their
	// dropped updates — to resolve. The worker-panic rule fires on every
	// job without panicking: it puts one traced fault event into each
	// job's trace.
	inj := chaos.New(20260808).
		WithProb(parallel.SiteHaloRead, 0.05).
		WithProb(parallel.SiteRepairDrop, 0.2).
		EveryNth(SiteWorkerPanic, 1, 0).
		WithFlight(rec)
	_, ts := newTestService(t, Config{Workers: 2, Flight: rec, Injector: inj})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/debug/flight")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/healthz")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	const n = 128
	for i, alg := range []string{"PGLL", "BDP", "PGLL", "BDP"} {
		// Shift the weights per job so no job is served from the cache.
		w := make([]int64, n*n)
		for v := range w {
			w[v] = int64((v+i)%9 + 1)
		}
		code, res := postSolve(t, ts.URL, Request{
			Tenant: "storm", Alg: alg, X: n, Y: n, Weights: w, TimeoutMS: 20000,
		})
		if code != http.StatusOK || res.Status != StatusDone {
			t.Fatalf("%s job %d: status %d/%q (%s)", alg, i, code, res.Status, res.Error)
		}
		g, err := grid.FromWeights2D(n, n, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := (core.Coloring{Start: res.Starts}).Validate(g); err != nil {
			t.Fatalf("%s job %d: invalid coloring under storm: %v", alg, i, err)
		}

		dump := getFlight(t, ts.URL, "trace="+res.TraceID)
		solve := findSpan(t, dump.Records, "solve")
		inner := findSpan(t, dump.Records, "solve:"+alg)
		if inner.Parent != solve.Span {
			t.Errorf("%s job %d: solve:%s parent %s, want the solve span %s", alg, i, alg, inner.Parent, solve.Span)
		}
		if alg == "BDP" {
			for _, phase := range []string{"BDP/decompose", "BDP/post"} {
				if sp := findSpan(t, dump.Records, phase); sp.Parent != inner.Span {
					t.Errorf("job %d: %s parent %s, want the solve:BDP span %s", i, phase, sp.Parent, inner.Span)
				}
			}
		}
		if alg == "PGLL" {
			checkPGLLSpans(t, i, dump.Records, inner)
		}
		fault := false
		for _, r := range dump.Records {
			if r.Kind == "event" && r.Name == "fault.injected" && r.Detail == string(SiteWorkerPanic) {
				fault = true
			}
		}
		if !fault {
			t.Errorf("%s job %d: no %s fault.injected event in its trace", alg, i, SiteWorkerPanic)
		}
	}
	close(stop)
	scrapers.Wait()

	if inj.Fires(parallel.SiteHaloRead) == 0 {
		t.Fatal("no halo misread fired; the storm exercised nothing")
	}
}

// checkPGLLSpans asserts the tile-parallel solver's span tree under its
// solve:PGLL span: speculate and repair directly beneath it, every tile
// under speculate, and every repair round under repair with a sweep
// span of its own.
func checkPGLLSpans(t *testing.T, job int, recs []flightRec, solve flightRec) {
	t.Helper()
	spec := findSpan(t, recs, "pgreedy/speculate")
	repair := findSpan(t, recs, "pgreedy/repair")
	for _, sp := range []flightRec{spec, repair} {
		if sp.Parent != solve.Span {
			t.Errorf("PGLL job %d: %s parent %s, want the solve:PGLL span %s", job, sp.Name, sp.Parent, solve.Span)
		}
	}
	tiles := 0
	rounds, swept := map[string]bool{}, map[string]bool{}
	for _, r := range recs {
		switch {
		case r.Kind != "span":
		case r.Name == "tile":
			tiles++
			if r.Parent != spec.Span {
				t.Errorf("PGLL job %d: tile %d parent %s, want speculate %s", job, r.Arg, r.Parent, spec.Span)
			}
		case r.Name == "round":
			rounds[r.Span] = true
			if r.Parent != repair.Span {
				t.Errorf("PGLL job %d: round %d parent %s, want repair %s", job, r.Arg, r.Parent, repair.Span)
			}
		case r.Name == "sweep":
			swept[r.Parent] = true
		}
	}
	if tiles == 0 || len(rounds) == 0 {
		t.Errorf("PGLL job %d: %d tile and %d round spans, want both", job, tiles, len(rounds))
	}
	for id := range rounds {
		if !swept[id] {
			t.Errorf("PGLL job %d: round span %s has no sweep span", job, id)
		}
	}
}
