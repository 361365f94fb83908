// Command ivcbench runs the committed performance suite and writes the
// results as machine-readable JSON (ns/op, allocs/op, maxcolor, and
// sequential-vs-parallel speedups) plus trajectory metadata — git
// commit/branch/dirty, wall-clock, and a runtime-sampler summary of the
// GC and scheduler interference the run measured under — so perf
// numbers can be committed per PR and diffed across revisions with
// cmd/benchdiff.
//
// Usage:
//
//	ivcbench                               full suite (2048^2 2D, 128^3 3D) -> BENCH_LOCAL.json
//	ivcbench -out BENCH_PR<n>.json         the same, as a snapshot to commit
//	ivcbench -quick -out /dev/stdout       small grids, for smoke runs
//	ivcbench -metrics BENCH.metrics.prom   also snapshot solver metrics
//	ivcbench -log BENCH.records.jsonl      also stream every solve's spans and events as JSON lines
//	ivcbench -sample 5ms                   runtime sampler interval (0 = off)
//
// The suite covers:
//   - PlaceLowest micro-kernels on 9-pt and 27-pt stencils (the
//     allocation-free hot path; the acceptance bar is 0 allocs/op),
//     including the uniform-weight variants that route through the
//     packed free-map kernel (PlaceLowestUnit, PlaceLowestBitset),
//   - the work-stealing tile scheduler on a weight-skewed grid at
//     increasing worker counts (StealSched2D),
//   - per-algorithm runtimes on representative dataset instances
//     (Figures 5a and 7a of the paper),
//   - the tile-parallel speculative solver (PGLL) against sequential
//     GLL on large grids at increasing worker counts,
//   - a warm content-addressed cache hit on the large 2D instance
//     (CacheHit — what the result cache saves on repeats).
//
// The report also records calibration_us, the median time of a fixed
// kernel of this program's own (calibrate.go) before and after the
// suite, so benchdiff can quote each delta against the host's speed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"stencilivc"
	"stencilivc/internal/core"
	"stencilivc/internal/datasets"
	"stencilivc/internal/grid"
)

// Result is one benchmark row of the JSON report.
type Result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	N        int     `json:"iterations"`
	MaxColor int64   `json:"maxcolor,omitempty"`
	Par      int     `json:"par,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
}

// GitInfo pins a report to the revision it measured, so benchdiff can
// label a trajectory point and a dirty tree is never mistaken for a
// committed one.
type GitInfo struct {
	Commit string `json:"commit,omitempty"`
	Branch string `json:"branch,omitempty"`
	Dirty  bool   `json:"dirty,omitempty"`
}

// LatencySummary reports solve-latency quantiles interpolated from the
// solver's solve_seconds histogram (obsv.Histogram.Quantile — the same
// estimator behind the service's /healthz SLO surface), describing the
// latency distribution across every solve the suite ran.
type LatencySummary struct {
	// Count is how many solves fed the histogram.
	Count int64 `json:"count"`
	// P50MS, P95MS, and P99MS are the quantiles in milliseconds.
	P50MS float64 `json:"p50_ms"`
	// P95MS is the 95th percentile.
	P95MS float64 `json:"p95_ms"`
	// P99MS is the 99th percentile.
	P99MS float64 `json:"p99_ms"`
}

// Report is the top-level JSON document.
type Report struct {
	GeneratedUnix int64    `json:"generated_unix"`
	Started       string   `json:"started,omitempty"`
	WallSeconds   float64  `json:"wall_seconds,omitempty"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	NumCPU        int      `json:"num_cpu"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	CPUModel      string   `json:"cpu_model"` // see cpuModel; benchdiff flags cross-host pairs by it
	Quick         bool     `json:"quick"`
	Git           *GitInfo `json:"git,omitempty"`
	// CalibrationUS is the median time of a fixed kernel (calibrate.go)
	// over runs before and after the suite: the host's speed while the
	// snapshot was taken. benchdiff divides each side's ns/op by it for
	// its calibrated delta.
	CalibrationUS float64 `json:"calibration_us"`
	// Runtime summarizes what the runtime sampler saw across the whole
	// run: GC pauses, scheduler latencies, heap and goroutine peaks —
	// the measurement conditions behind the numbers.
	Runtime *stencilivc.RuntimeSummary `json:"runtime,omitempty"`
	// SolveLatency summarizes the solve_seconds histogram over the whole
	// run (present with -metrics, which arms the solver metrics bundle).
	SolveLatency *LatencySummary `json:"solve_latency,omitempty"`
	Interrupted  bool            `json:"interrupted,omitempty"`
	Results      []Result        `json:"results"`
}

// gitInfo shells out to git for commit/branch/dirty; best-effort — a
// missing git binary or a non-repo working directory yields nil, and
// the report simply omits the git block.
func gitInfo() *GitInfo {
	out := func(args ...string) (string, bool) {
		b, err := exec.Command("git", args...).Output()
		if err != nil {
			return "", false
		}
		return strings.TrimSpace(string(b)), true
	}
	commit, ok := out("rev-parse", "HEAD")
	if !ok {
		return nil
	}
	g := &GitInfo{Commit: commit}
	if branch, ok := out("rev-parse", "--abbrev-ref", "HEAD"); ok {
		g.Branch = branch
	}
	if status, ok := out("status", "--porcelain"); ok {
		g.Dirty = status != ""
	}
	return g
}

// cpuModel returns the first "model name" in /proc/cpuinfo; empty when
// the file is missing (non-Linux hosts) or has no such line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// errInterrupted aborts the remaining suite stages after a SIGINT or
// SIGTERM; the report written so far is still valid, just partial.
var errInterrupted = errors.New("interrupted")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ivcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "BENCH_LOCAL.json", "output JSON file ('-' for stdout)")
	quick := flag.Bool("quick", false, "use small grids (fast smoke run)")
	seed := flag.Int64("seed", 1, "weight RNG seed for the scaling grids")
	metricsOut := flag.String("metrics", "", "also write a Prometheus snapshot of the solver metrics to this file")
	logPath := flag.String("log", "", "trace every solve and stream its flight records (spans and events, one /debug/flight record per JSON line) to this file ('-' for stderr)")
	sample := flag.Duration("sample", 10*time.Millisecond, "runtime sampler interval (0 disables the sampler)")
	flag.Parse()

	// ^C finishes the in-flight benchmark, then writes a partial report
	// (marked "interrupted") instead of discarding an hour of results. A
	// second ^C kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var reg *stencilivc.MetricsRegistry
	var sm *stencilivc.SolveMetrics
	if *metricsOut != "" {
		reg = stencilivc.NewMetricsRegistry()
		sm = stencilivc.NewSolveMetrics(reg)
	}
	// The sampler runs across the whole suite (not per-solve): its
	// summary describes the measurement conditions — GC pauses, scheduler
	// stalls, heap growth — that the committed numbers were taken under.
	// With -metrics its families also land in the Prometheus snapshot.
	var sampler *stencilivc.RuntimeSampler
	if *sample > 0 {
		sampler = stencilivc.NewRuntimeSampler(reg, *sample)
		sampler.Start()
	}
	// -log traces every solve into a small recorder that only streams.
	var rec *stencilivc.FlightRecorder
	var tc *stencilivc.TraceContext
	if *logPath != "" {
		w := io.Writer(os.Stderr)
		if *logPath != "-" {
			f, err := os.Create(*logPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		rec = stencilivc.NewFlightRecorder(64, nil)
		rec.Export(w)
		tc = rec.NewContext("ivcbench", "")
	}

	start := time.Now()
	rep := &Report{
		GeneratedUnix: start.Unix(),
		Started:       start.UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		Quick:         *quick,
		Git:           gitInfo(),
	}

	cal := calibrate(nil)
	size2, size3 := 2048, 128
	if *quick {
		size2, size3 = 256, 32
	}

	err := func() error {
		benchPlaceLowest(rep, sm)
		if err := checkpoint(ctx); err != nil {
			return err
		}
		if err := benchFigRuntimes(ctx, rep, sm, tc); err != nil {
			return err
		}
		if err := benchParallel(ctx, rep, size2, size3, *seed, sm, tc); err != nil {
			return err
		}
		// Last, after the figure and scaling suites: the steal-scheduler
		// sweep churns the heap, and running it earlier would skew the
		// Fig* numbers relative to how older snapshots measured them.
		if err := benchSteal(ctx, rep, sm, tc); err != nil {
			return err
		}
		return benchCacheHit(ctx, rep, size2, sm)
	}()
	rep.CalibrationUS = calibrationUS(calibrate(cal))
	note("host calibration: %.1f us", rep.CalibrationUS)
	if errors.Is(err, errInterrupted) {
		rep.Interrupted = true
		note("interrupted — writing partial report (%d results)", len(rep.Results))
	} else if err != nil {
		return err
	}

	if sampler != nil {
		sampler.Stop()
		sum := sampler.Summary()
		rep.Runtime = &sum
		note("runtime: %d samples, %d GC cycles, %d pauses (total %.3fms, max %.3fms)",
			sum.Samples, sum.GCCycles, sum.GCPauseCount,
			sum.GCPauseTotalSeconds*1e3, sum.GCPauseMaxSeconds*1e3)
	}
	if sm != nil {
		if n := sm.SolveSeconds.Count(); n > 0 {
			rep.SolveLatency = &LatencySummary{
				Count: n,
				P50MS: sm.SolveSeconds.Quantile(0.5) * 1e3,
				P95MS: sm.SolveSeconds.Quantile(0.95) * 1e3,
				P99MS: sm.SolveSeconds.Quantile(0.99) * 1e3,
			}
			note("solve latency over %d solves: p50 %.3fms, p95 %.3fms, p99 %.3fms",
				n, rep.SolveLatency.P50MS, rep.SolveLatency.P95MS, rep.SolveLatency.P99MS)
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	if rec != nil {
		note("log: %d records -> %s", rec.Export(nil), *logPath)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	return writeMetrics(*metricsOut, reg)
}

// writeMetrics dumps the accumulated solver metrics as a Prometheus
// text snapshot, so a bench run leaves behind not just timings but the
// work the solvers actually did (placements, probes, conflicts,
// occupancy-length distribution).
func writeMetrics(path string, reg *stencilivc.MetricsRegistry) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	note("metrics snapshot -> %s", path)
	return nil
}

// checkpoint reports errInterrupted once a shutdown signal has arrived,
// so the suite stops between benchmarks — never mid-measurement.
func checkpoint(ctx context.Context) error {
	if ctx.Err() != nil {
		return errInterrupted
	}
	return nil
}

// note prints a progress line to stderr so long runs are watchable.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ivcbench: "+format+"\n", args...)
}

// measure runs fn through testing.Benchmark benchReps times and keeps
// the run with the lowest ns/op. On a shared-vCPU runner, scheduler and
// noisy-neighbor interference only ever inflates a measurement, never
// deflates it, so the minimum is the least-biased estimator of the true
// cost — single-shot numbers made cross-snapshot diffs flap by ±20% on
// otherwise identical code. Allocation stats are the lowest of the reps
// too: a collection that lands inside a timed solve makes the pools it
// empties allocate again, which is the runtime's count, not the
// solver's.
func measure(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	allocs, bytes := best.AllocsPerOp(), best.AllocedBytesPerOp()
	for i := 1; i < benchReps; i++ {
		r := testing.Benchmark(fn)
		allocs, bytes = min(allocs, r.AllocsPerOp()), min(bytes, r.AllocedBytesPerOp())
		if r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	best.MemAllocs, best.MemBytes = uint64(allocs)*uint64(best.N), uint64(bytes)*uint64(best.N)
	return best
}

// benchReps is how many testing.Benchmark runs feed each recorded
// best-of measurement.
const benchReps = 3

func record(rep *Report, name string, br testing.BenchmarkResult) *Result {
	rep.Results = append(rep.Results, Result{
		Name:     name,
		NsPerOp:  float64(br.NsPerOp()),
		AllocsOp: br.AllocsPerOp(),
		BytesOp:  br.AllocedBytesPerOp(),
		N:        br.N,
	})
	r := &rep.Results[len(rep.Results)-1]
	note("%-40s %12.1f ns/op %6d allocs/op", name, r.NsPerOp, r.AllocsOp)
	return r
}

// benchPlaceLowest measures the steady-state placement kernel on interior
// stencil neighborhoods; allocs/op must be 0. The kernel's tallies are
// flushed into the metrics bundle after every pass over the grid, as a
// metered solve flushes once per solve.
func benchPlaceLowest(rep *Report, sm *stencilivc.SolveMetrics) {
	opts := &stencilivc.SolveOptions{Metrics: sm}
	// Every row runs on a 64² 9-pt or a 16³ 27-pt grid: 4096 vertices.
	run := func(name string, dims int, weight, start func(*rand.Rand) int64) {
		rng := rand.New(rand.NewSource(1))
		w := make([]int64, 1<<12)
		for v := range w {
			w[v] = weight(rng)
		}
		var g grid.Stencil
		if dims == 2 {
			g = must(grid.FromWeights2D(64, 64, w))
		} else {
			g = must(grid.FromWeights3D(16, 16, 16, w))
		}
		c := core.NewColoring(g.Len())
		for v := range c.Start {
			c.Start[v] = start(rng)
		}
		var s core.FitScratch
		v := 0
		br := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.PlaceLowest(g, c, v, -1)
				v++
				if v == g.Len() {
					v = 0
					s.Flush(opts)
				}
			}
			s.Flush(opts)
		})
		record(rep, name, br)
	}
	mixed := func(rng *rand.Rand) int64 { return rng.Int63n(9) + 1 }
	mixedStart := func(rng *rand.Rand) int64 { return rng.Int63n(60) }
	run("PlaceLowest/9pt", 2, mixed, mixedStart)
	run("PlaceLowest/27pt", 3, mixed, mixedStart)

	// The uniform-weight kernels: PlaceLowestUnit is the unit-weight
	// degenerate case (classic vertex coloring; the STKDE warm-up tier),
	// PlaceLowestBitset a common weight w > 1 with slot-aligned starts
	// (as greedy produces). Both route through the packed free-map scan
	// instead of the interval kernel; allocs/op must likewise stay 0.
	uniform := func(wv int64) (func(*rand.Rand) int64, func(*rand.Rand) int64) {
		return func(*rand.Rand) int64 { return wv },
			func(rng *rand.Rand) int64 { return rng.Int63n(12) * wv }
	}
	unitW, unitStart := uniform(1)
	run("PlaceLowestUnit/9pt", 2, unitW, unitStart)
	run("PlaceLowestUnit/27pt", 3, unitW, unitStart)
	bitW, bitStart := uniform(5)
	run("PlaceLowestBitset/9pt", 2, bitW, bitStart)
	run("PlaceLowestBitset/27pt", 3, bitW, bitStart)
}

// must returns g, panicking on err: for grids built from weights that
// are valid by construction.
func must[G any](g G, err error) G {
	if err != nil {
		panic(err)
	}
	return g
}

// benchSteal measures the work-stealing tile scheduler on a
// weight-skewed grid — one heavy corner makes the static contiguous
// partition unbalanced, so scaling beyond par=1 depends on idle
// workers stealing tile ranges. The solve is PGLL, which speculates
// optimistically: above par=1 its halo reads depend on tile timing, so
// the coloring and the repair work may drift a little between worker
// counts (each row records its maxcolor). The configuration is kept as
// it is so StealSched2D rows stay comparable across BENCH_PR*.json
// snapshots.
func benchSteal(ctx context.Context, rep *Report, sm *stencilivc.SolveMetrics, tc *stencilivc.TraceContext) error {
	const dim = 256
	rng := rand.New(rand.NewSource(3))
	g := must(grid.FromWeights2D(dim, dim, randomWeights(rng, dim*dim, 9, 1)))
	for j := 0; j < dim/4; j++ {
		for i := 0; i < dim/4; i++ {
			g.Set(i, j, 60+rng.Int63n(40))
		}
	}
	for _, par := range []int{1, 2, 4} {
		if err := checkpoint(ctx); err != nil {
			return err
		}
		var mc int64
		var solveErr error
		br := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := stencilivc.Solve(stencilivc.PGLL, g,
					&stencilivc.SolveOptions{Parallelism: par, Metrics: sm, TraceCtx: tc})
				if err != nil {
					solveErr = err
					b.FailNow()
				}
				mc = c.MaxColor(g)
			}
		})
		if solveErr != nil {
			return solveErr
		}
		r := record(rep, fmt.Sprintf("StealSched2D/%dx%d-par%d", dim, dim, par), br)
		r.MaxColor, r.Par = mc, par
	}
	return nil
}

// benchCacheHit measures a warm content-addressed cache hit on a
// size×size instance, looked up again on the same grid: the grid keeps
// the digest the warm-up solve computed, so each iteration's key hashes
// under 100 bytes and no weights, and the row times the LRU lookup and
// the deep copy of the memoized coloring. The gap between this row and
// the same-size solve rows is what the result cache saves a library
// caller repeating a solve on one grid. A re-solve returns the same
// maxcolor as a hit, so the row fails unless every timed iteration
// counts one cache hit.
func benchCacheHit(ctx context.Context, rep *Report, size int, sm *stencilivc.SolveMetrics) error {
	if err := checkpoint(ctx); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(5))
	g := must(grid.FromWeights2D(size, size, randomWeights(rng, size*size, 9, 1)))
	cache := stencilivc.NewResultCache(stencilivc.ResultCacheConfig{})
	opts := &stencilivc.SolveOptions{Metrics: sm, Cache: cache}
	// Warm the cache: the first solve runs for real and is memoized.
	warm, err := stencilivc.Solve(stencilivc.GLL, g, opts)
	if err != nil {
		return err
	}
	var mc int64
	var loopErr error
	br := measure(func(b *testing.B) {
		hits := cache.Snapshot().Hits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := stencilivc.Solve(stencilivc.GLL, g, opts)
			if err != nil {
				loopErr = err
				b.FailNow()
			}
			mc = c.MaxColor(g)
		}
		b.StopTimer()
		if got := cache.Snapshot().Hits - hits; got != int64(b.N) {
			loopErr = fmt.Errorf("%d cache hits in %d iterations: the row timed re-solves", got, b.N)
			b.FailNow()
		}
	})
	if loopErr != nil {
		return loopErr
	}
	if mc != warm.MaxColor(g) {
		return fmt.Errorf("cache hit drifted from the solved maxcolor: %d vs %d", mc, warm.MaxColor(g))
	}
	r := record(rep, fmt.Sprintf("CacheHit/%dx%d", size, size), br)
	r.MaxColor = mc
	return nil
}

// benchFigRuntimes reruns the per-algorithm runtime comparisons of
// Figures 5a (2D) and 7a (3D) on the largest Dengue suite instances.
func benchFigRuntimes(ctx context.Context, rep *Report, sm *stencilivc.SolveMetrics, tc *stencilivc.TraceContext) error {
	s2, err := datasets.Suite2D(datasets.SuiteOptions{Seed: 1, Stride: 2, MaxDim: 32})
	if err != nil {
		return err
	}
	s3, err := datasets.Suite3D(datasets.SuiteOptions{Seed: 1, Stride: 2, MaxDim: 16})
	if err != nil {
		return err
	}
	var g2 *stencilivc.Grid2D
	for _, in := range s2 {
		if in.Dataset != datasets.Dengue || in.Projection != datasets.XY {
			continue
		}
		g, err := stencilivc.FromWeights2D(in.X, in.Y, in.Weights)
		if err != nil {
			return err
		}
		if g2 == nil || g.Len() > g2.Len() {
			g2 = g
		}
	}
	var g3 *stencilivc.Grid3D
	for _, in := range s3 {
		if in.Dataset != datasets.Dengue {
			continue
		}
		g, err := stencilivc.FromWeights3D(in.X, in.Y, in.Z, in.Weights)
		if err != nil {
			return err
		}
		if g3 == nil || g.Len() > g3.Len() {
			g3 = g
		}
	}
	if g2 == nil || g3 == nil {
		return fmt.Errorf("dataset suites produced no representative instances")
	}

	for _, alg := range stencilivc.Algorithms() {
		if err := checkpoint(ctx); err != nil {
			return err
		}
		alg := alg
		var mc int64
		br := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := stencilivc.Solve(alg, g2, &stencilivc.SolveOptions{Metrics: sm, TraceCtx: tc})
				if err != nil {
					b.Fatal(err)
				}
				mc = c.MaxColor(g2)
			}
		})
		record(rep, fmt.Sprintf("Fig5a2D/%s", alg), br).MaxColor = mc
	}
	for _, alg := range stencilivc.Algorithms() {
		if err := checkpoint(ctx); err != nil {
			return err
		}
		alg := alg
		var mc int64
		br := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := stencilivc.Solve(alg, g3, &stencilivc.SolveOptions{Metrics: sm, TraceCtx: tc})
				if err != nil {
					b.Fatal(err)
				}
				mc = c.MaxColor(g3)
			}
		})
		record(rep, fmt.Sprintf("Fig7a3D/%s", alg), br).MaxColor = mc
	}
	return nil
}

// benchParallel measures the tile-parallel speculative solver (PGLL)
// against sequential GLL on a size2^2 2D grid and a size3^3 3D grid, at
// worker counts 1, 2, 4, ..., NumCPU. Speedup is sequential ns/op over
// parallel ns/op; on a single-core runner it stays near 1.
func benchParallel(ctx context.Context, rep *Report, size2, size3 int, seed int64, sm *stencilivc.SolveMetrics, tc *stencilivc.TraceContext) error {
	parSweep := []int{1}
	for p := 2; p <= runtime.NumCPU(); p *= 2 {
		parSweep = append(parSweep, p)
	}

	solve := func(alg stencilivc.Algorithm, s stencilivc.Stencil, par int) (testing.BenchmarkResult, int64, error) {
		var mc int64
		var solveErr error
		br := measure(func(b *testing.B) {
			// An untimed solve first fills PGLL's buffer pools, so the
			// row counts a warm solve's allocations whatever collections
			// emptied the pools since the last row.
			b.StopTimer()
			if _, err := stencilivc.Solve(alg, s, &stencilivc.SolveOptions{Parallelism: par}); err != nil {
				solveErr = err
				b.FailNow()
			}
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				c, err := stencilivc.Solve(alg, s, &stencilivc.SolveOptions{Parallelism: par, Metrics: sm, TraceCtx: tc})
				if err != nil {
					solveErr = err
					b.FailNow()
				}
				// Every solve is validated, but off the clock: on 128³
				// Validate takes about half as long as GLL's solve, and
				// timing it would pull every PGLL-vs-GLL ratio toward 1.
				b.StopTimer()
				if err := c.Validate(s); err != nil {
					solveErr = err
					b.FailNow()
				}
				mc = c.MaxColor(s)
				b.StartTimer()
			}
		})
		return br, mc, solveErr
	}

	bench := func(label string, s stencilivc.Stencil) error {
		if err := checkpoint(ctx); err != nil {
			return err
		}
		br, mc, err := solve(stencilivc.GLL, s, 1)
		if err != nil {
			return err
		}
		r := record(rep, label+"/GLL", br)
		r.MaxColor, r.Par = mc, 1
		seqNs := r.NsPerOp
		for _, par := range parSweep {
			if err := checkpoint(ctx); err != nil {
				return err
			}
			br, mc, err := solve(stencilivc.PGLL, s, par)
			if err != nil {
				return err
			}
			r := record(rep, fmt.Sprintf("%s/PGLL-par%d", label, par), br)
			r.MaxColor, r.Par = mc, par
			r.Speedup = seqNs / r.NsPerOp
			note("%s par=%d: speedup %.2fx over sequential GLL", label, par, r.Speedup)
		}
		return nil
	}

	rng := rand.New(rand.NewSource(seed))
	g2 := must(grid.FromWeights2D(size2, size2, randomWeights(rng, size2*size2, 100, 0)))
	note("scaling 2D: %dx%d (%d vertices)", size2, size2, g2.Len())
	if err := bench(fmt.Sprintf("Parallel2D/%dx%d", size2, size2), g2); err != nil {
		return err
	}

	g3 := must(grid.FromWeights3D(size3, size3, size3, randomWeights(rng, size3*size3*size3, 100, 0)))
	note("scaling 3D: %dx%dx%d (%d vertices)", size3, size3, size3, g3.Len())
	return bench(fmt.Sprintf("Parallel3D/%dx%dx%d", size3, size3, size3), g3)
}

// randomWeights draws n weights rng.Int63n(span)+lo, in vertex order.
func randomWeights(rng *rand.Rand, n int, span, lo int64) []int64 {
	w := make([]int64, n)
	for v := range w {
		w[v] = rng.Int63n(span) + lo
	}
	return w
}
