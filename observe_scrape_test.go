package stencilivc_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stencilivc"
)

// TestMetricsScrapeDuringSolve: the full observability stack at once —
// a PGLL solve instrumented with solver metrics, the runtime sampler,
// and a flight recorder streaming its records (the -log path), while
// concurrent scrapers hit the Prometheus endpoint the whole time. Under
// -race (the make check configuration) this proves the sampler's
// publishing, the solver's atomic counters, the recorder's serialized
// stream writes from tile workers, and the exposition's reads never
// conflict.
func TestMetricsScrapeDuringSolve(t *testing.T) {
	g := stencilivc.MustGrid2D(256, 256)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%13)+1)
	}

	reg := stencilivc.NewMetricsRegistry()
	rec := stencilivc.NewFlightRecorder(256, reg)
	var stream bytes.Buffer
	rec.Export(&stream)
	opts := &stencilivc.SolveOptions{
		Parallelism: 4,
		Metrics:     stencilivc.NewSolveMetrics(reg),
		Sampler:     stencilivc.NewRuntimeSampler(reg, time.Millisecond),
		TraceCtx:    rec.NewContext("", ""),
	}

	srv := httptest.NewServer(stencilivc.MetricsHandler(reg))
	defer srv.Close()

	// Scrapers race the solve: each GET walks every registry family while
	// the sampler publishes and tile workers bump the counters.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lastBody []byte
	var lastMu sync.Mutex
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				lastMu.Lock()
				lastBody = body
				lastMu.Unlock()
			}
		}()
	}

	for round := 0; round < 3; round++ {
		c, err := stencilivc.Solve(stencilivc.PGLL, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// One more scrape after the dust settles, then check the families the
	// sampler contributes appear alongside the solver taxonomy.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"ivc_vertices_colored_total",
		"ivc_last_maxcolor",
		"go_gc_pause_seconds",
		"go_sched_latency_seconds",
		"go_heap_live_bytes",
		"go_sched_goroutines",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("scrape missing family %q", fam)
		}
	}
	lastMu.Lock()
	racedBody := lastBody
	lastMu.Unlock()
	if len(racedBody) == 0 {
		t.Error("no scrape completed during the solves")
	}

	if sum := opts.Sampler.Summary(); sum.Samples < 1 {
		t.Errorf("sampler summary = %+v, want at least one sample across three solves", sum)
	}
	n := rec.Export(nil)
	log := stream.String()
	if lines := int64(strings.Count(log, "\n")); n != lines {
		t.Errorf("Export(nil) = %d, but the stream holds %d lines", n, lines)
	}
	for _, name := range []string{`"name":"solve:PGLL"`, `"name":"pgreedy/speculate"`, `"name":"tile"`} {
		if got := strings.Count(log, name); got < 3 {
			t.Errorf("stream has %d %s records across three solves, want >= 3", got, name)
		}
	}
}
