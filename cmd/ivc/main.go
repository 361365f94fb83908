// Command ivc colors a single stencil instance.
//
// Usage:
//
//	ivc -alg BDP < instance.ivc          color an instance from stdin
//	ivc -alg all -in instance.ivc        compare all algorithms
//	ivc -alg best -par 4 -in g.ivc       run the portfolio on 4 goroutines
//	ivc -alg SGK -in g.ivc -print        also print the coloring
//	ivc -alg BDP -in g.ivc -stats        report work counters and per-span wall times
//	ivc -alg BDP -in g.ivc -timeout 2s   abort long solves
//	ivc -alg BDP -in g.ivc -exact 500000 additionally certify optimality
//	ivc -alg BDP -in g.ivc -simulate 4 -gantt   draw the schedule
//	ivc -alg PGLL -par 8 -in g.ivc       tile-parallel speculative solve
//	ivc -alg BDP -in g.ivc -cpuprofile cpu.pprof -memprofile mem.pprof
//	ivc -alg PGLL -par 8 -in g.ivc -trace out.json   solve, phase, tile and round spans for chrome://tracing
//	ivc -alg BDP -in g.ivc -http :6060 -linger 30s   serve /metrics, /debug/vars, /debug/pprof
//	ivc -alg best -in g.ivc -log events.jsonl        structured solve-event log (JSON lines)
//	ivc -serve :8080 -par 4                          solve daemon: POST /solve job API
//	ivc -serve :8080 -cache-dir /var/cache/ivc       daemon with a restart-surviving result cache
//	ivc -serve :8080 -flight-entries 16384           bigger flight-recorder ring at /debug/flight
//
// Instances use the text format of internal/grid: a header line
// "ivc2d X Y" or "ivc3d X Y Z" followed by the cell weights.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"stencilivc"
	"stencilivc/internal/bounds"
	"stencilivc/internal/obsv"
	"stencilivc/internal/render"
	"stencilivc/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ivc:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	algName := flag.String("alg", "BDP", "algorithm (GLL, GZO, GLF, GKF, SGK, BD, BDP, BDL, PGLL, PGLF, best, all)")
	inPath := flag.String("in", "-", "instance file ('-' for stdin)")
	print := flag.Bool("print", false, "print the start color of every vertex")
	stats := flag.Bool("stats", false, "report solver work counters, then run count and total wall time per span name")
	timeout := flag.Duration("timeout", 0, "if > 0, abort solving after this long")
	par := flag.Int("par", 1, "parallelism: portfolio goroutines for -alg best, tile workers for PGLL/PGLF")
	exactBudget := flag.Int("exact", 0, "if > 0, also run the exact solver with this node budget")
	workers := flag.Int("simulate", 0, "if > 0, simulate execution on this many processors")
	gantt := flag.Bool("gantt", false, "with -simulate, draw the schedule as a Gantt chart")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write the solve's spans to this file in Chrome trace format")
	logPath := flag.String("log", "", "write the structured solve-event log (JSON lines) to this file ('-' for stderr)")
	httpAddr := flag.String("http", "", "serve /metrics (Prometheus), /debug/vars (expvar), and /debug/pprof on this address")
	serveAddr := flag.String("serve", "", "run as a solve daemon: job API (POST /solve, GET /jobs/{id}, GET /healthz) plus /metrics and /debug/ on this address")
	linger := flag.Duration("linger", 0, "with -http, keep serving this long after the solve finishes")
	partial := flag.Bool("partial", false, "with -alg best and -timeout (or ^C), report the best completed algorithm instead of aborting")
	cacheDir := flag.String("cache-dir", "", "with -serve, persist cached solve results under this directory (survives restarts)")
	cacheBytes := flag.Int64("cache-bytes", 0, "with -serve, byte budget for the in-memory result cache (0 = 64 MiB default, negative disables caching)")
	cacheMaxEntries := flag.Int("cache-max-entries", 0, "with -serve and -cache-dir, cap persisted entries at open; oldest evicted first (0 = unbounded)")
	cacheTTL := flag.Duration("cache-ttl", 0, "with -serve and -cache-dir, expire persisted entries older than this at open (0 = never)")
	flightEntries := flag.Int("flight-entries", 0, "size of the flight-recorder ring that -trace, -stats and -http read (served at /debug/flight) and that -serve keeps always on; the oldest records drop when it fills (0 = 4096)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the solve (or stop the daemon) through the
	// context instead of killing the process mid-write; a second signal
	// terminates immediately (service.NotifySignals unregisters the
	// handler the moment the context cancels).
	ctx, stopSignals := service.NotifySignals(context.Background())
	defer stopSignals()

	if *serveAddr != "" {
		return runServe(ctx, *serveAddr, *logPath, *par, *timeout,
			cacheConfig{dir: *cacheDir, bytes: *cacheBytes, maxEntries: *cacheMaxEntries, ttl: *cacheTTL},
			*flightEntries)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ivc: heap profile:", err)
			}
			f.Close()
		}()
	}

	var in io.Reader = os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	g2, g3, err := stencilivc.ReadInstance(in)
	if err != nil {
		return err
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := &stencilivc.SolveOptions{
		Ctx:             ctx,
		Parallelism:     *par,
		Stats:           &stencilivc.Stats{},
		PartialOnCancel: *partial,
	}
	obsDone, err := setupObs(ctx, os.Stdout, obsConfig{
		tracePath: *tracePath, httpAddr: *httpAddr, logPath: *logPath, stats: *stats,
		linger: *linger, flightEntries: *flightEntries,
	}, opts)
	if err != nil {
		return err
	}
	defer func() {
		if e := obsDone(); err == nil {
			err = e
		}
	}()

	var s stencilivc.Stencil
	var lb int64
	const cycleBudget = 200_000
	if g2 != nil {
		rep := bounds.Report2D(g2, cycleBudget)
		s, lb = g2, rep.Best()
		fmt.Printf("instance: 9-pt stencil %dx%d, %d vertices\n", g2.X, g2.Y, g2.Len())
		fmt.Print(render.Weights2D(g2))
		fmt.Println(rep)
	} else {
		rep := bounds.Report3D(g3, cycleBudget)
		s, lb = g3, rep.Best()
		fmt.Printf("instance: 27-pt stencil %dx%dx%d, %d vertices\n", g3.X, g3.Y, g3.Z, g3.Len())
		fmt.Println(rep)
	}

	algs := []stencilivc.Algorithm{stencilivc.Algorithm(*algName)}
	switch *algName {
	case "all":
		algs = stencilivc.Algorithms()
	case "best":
		t0 := time.Now()
		c, winner, err := stencilivc.Best(s, opts)
		switch {
		case err == nil:
		case errors.Is(err, stencilivc.ErrPartial):
			// -partial turned the cancellation into a usable result: the
			// winning coloring among the algorithms that did finish.
			fmt.Printf("note: %v\n", err)
		default:
			return err
		}
		fmt.Printf("best: %-4s maxcolor=%d (%.3fms, all algorithms, par=%d)\n",
			winner, c.MaxColor(s), float64(time.Since(t0).Microseconds())/1000, opts.Par())
		return finish(s, c, lb, *print, *exactBudget, *workers, *gantt, g2, g3)
	}

	var last stencilivc.Coloring
	for _, alg := range algs {
		t0 := time.Now()
		c, err := stencilivc.Solve(alg, s, opts)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		if err := c.Validate(s); err != nil {
			return fmt.Errorf("%s produced an invalid coloring: %w", alg, err)
		}
		mark := ""
		if c.MaxColor(s) == lb {
			mark = "  (provably optimal)"
		}
		fmt.Printf("%-4s maxcolor=%-8d %10.3fms%s\n",
			alg, c.MaxColor(s), float64(dt.Microseconds())/1000, mark)
		last = c
	}
	return finish(s, last, lb, *print, *exactBudget, *workers, *gantt, g2, g3)
}

// obsConfig is the observability half of the command line.
type obsConfig struct {
	tracePath, httpAddr, logPath string
	stats                        bool
	linger                       time.Duration
	flightEntries                int
}

// setupObs attaches the requested observability sinks to opts. -trace,
// -stats and -http share one flight recorder, sized by -flight-entries,
// under a "cli" trace context, so every solve and phase span lands in
// it. -log attaches a structured solve-event log, and -http a metrics
// registry — fed by both the solvers and a runtime sampler — served
// over HTTP with expvar, pprof and /debug/flight riding on the default
// mux. The returned finalizer writes the Chrome trace file, prints the
// -stats report to out, closes the event log, keeps the HTTP endpoints
// up for the -linger window (cut short by SIGINT/SIGTERM via ctx), and
// then shuts the server down gracefully so an in-flight scrape finishes
// instead of seeing a reset connection; run defers it so every exit
// path flushes the trace.
func setupObs(ctx context.Context, out io.Writer, cfg obsConfig, opts *stencilivc.SolveOptions) (func() error, error) {
	var logFile *os.File
	if cfg.logPath == "-" {
		opts.Events = stencilivc.NewJSONEventSink(os.Stderr)
	} else if cfg.logPath != "" {
		f, err := os.Create(cfg.logPath)
		if err != nil {
			return nil, err
		}
		logFile = f
		opts.Events = stencilivc.NewJSONEventSink(f)
	}
	var reg *stencilivc.MetricsRegistry
	if cfg.httpAddr != "" {
		reg = stencilivc.NewMetricsRegistry()
		opts.Metrics = stencilivc.NewSolveMetrics(reg)
		opts.Sampler = stencilivc.NewRuntimeSampler(reg, 0)
		reg.Publish("ivc")
		http.Handle("/metrics", stencilivc.MetricsHandler(reg))
	}
	var rec *stencilivc.FlightRecorder
	if cfg.tracePath != "" || cfg.stats || reg != nil {
		rec = stencilivc.NewFlightRecorder(cfg.flightEntries, reg)
		opts.TraceCtx = rec.NewContext("cli", "cli")
	}
	var srv *http.Server
	if reg != nil {
		http.Handle("/debug/flight", stencilivc.FlightHandler(rec))
		ln, err := service.Listen(cfg.httpAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "serving /metrics, /debug/vars, /debug/pprof on http://%s\n", ln.Addr())
		srv = service.NewHTTPServer(http.DefaultServeMux)
		go srv.Serve(ln)
	}
	return func() error {
		recs := rec.Snapshot(0, "", "", 0)
		if cfg.tracePath != "" {
			f, err := os.Create(cfg.tracePath)
			if err != nil {
				return err
			}
			if err := stencilivc.WriteChromeTrace(f, recs); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "trace: %d records -> %s\n", len(recs), cfg.tracePath)
		}
		if cfg.stats {
			writeStats(out, opts.Stats, recs)
		}
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "events: %d -> %s\n", opts.Events.Emitted(), cfg.logPath)
		}
		if srv == nil {
			return nil
		}
		if cfg.linger > 0 && ctx.Err() == nil {
			fmt.Fprintf(out, "lingering %s for scrapes (^C to stop early)\n", cfg.linger)
			select {
			case <-time.After(cfg.linger):
			case <-ctx.Done():
			}
		}
		if err := service.ShutdownHTTP(srv); err != nil {
			return fmt.Errorf("http shutdown: %w", err)
		}
		return nil
	}, nil
}

// writeStats prints the -stats report: the work counters, then one row
// per span name with its run count and total wall time, sorted by name.
func writeStats(out io.Writer, st *stencilivc.Stats, recs []stencilivc.FlightRecord) {
	fmt.Fprintln(out, st)
	runs, wallNS := map[string]int{}, map[string]int64{}
	for _, r := range recs {
		if r.Kind == obsv.FlightKindSpan {
			runs[r.Name]++
			wallNS[r.Name] += r.WallNS
		}
	}
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  span %-20s runs=%-5d total=%.3fms\n", name, runs[name], float64(wallNS[name])/1e6)
	}
}

func finish(g stencilivc.Graph, c stencilivc.Coloring, lb int64,
	print bool, exactBudget, workers int, gantt bool,
	g2 *stencilivc.Grid2D, g3 *stencilivc.Grid3D) error {

	if print {
		if g2 != nil {
			fmt.Print(render.Intervals2D(g2, c))
		} else {
			for v := 0; v < g.Len(); v++ {
				fmt.Printf("vertex %d: [%d,%d)\n", v, c.Start[v], c.Start[v]+g.Weight(v))
			}
		}
	}
	if exactBudget > 0 {
		var res stencilivc.ExactResult
		if g2 != nil {
			res = stencilivc.Optimal2D(g2, exactBudget)
		} else {
			res = stencilivc.Optimal3D(g3, exactBudget)
		}
		status := "bounds only"
		if res.Optimal {
			status = "proven optimal"
		}
		fmt.Printf("exact: maxcolor in [%d, %d] (%s, %d nodes)\n",
			res.LowerBound, res.MaxColor, status, res.NodesUsed)
	}
	if workers > 0 {
		d, err := stencilivc.TaskDAG(g, c)
		if err != nil {
			return err
		}
		s, err := stencilivc.Simulate(d, workers)
		if err != nil {
			return err
		}
		fmt.Printf("simulated on %d processors: makespan %d (critical path %d, total work %d)\n",
			workers, s.Makespan, d.CriticalPath(), d.TotalWork())
		if gantt {
			chart, err := render.Gantt(d, s, workers, 72)
			if err != nil {
				return err
			}
			fmt.Print(chart)
		}
	}
	return nil
}
