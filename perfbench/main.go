// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload from outside, through public entry points, checks
// every output against a direct library reference, and prints each metric
// by name with its unit; the last line is a JSON result object.
//
// Workloads:
//
//	serve-miss   the solve daemon, 1 closed-loop client, 2 tenants, every
//	             request a distinct instance (a cache miss and a real solve)
//	serve-hit    the solve daemon, 1 closed-loop client, 2 tenants, over a
//	             warmed pool of 32 instances: every request a hit
//	solve-batch  the library path (heuristics.Run) on 256² and 40³ grids
//	             of three weight families, every algorithm plus PGLL
//
// Usage:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics and the tracing overhead instead. See
// perfbench/README.md for what each metric measures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stencilivc/internal/service"
)

// config is one run's settings. The defaults are the benchmark's; the
// tests shrink sizes and counts.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	minOps    int // completed operations the timed phase needs at least
	setups    int // set-up repetitions; setup_s is their median
	warmups   int // serve-miss requests per set-up
	pool      int // serve-hit pool size
	panel     int // serve quality panel size
	layerReps int
	sizes     sizes
	// tamper, when set, edits a decoded timed response before it is
	// checked (the tests use it to prove a wrong answer is caught).
	tamper func(op int, r *service.Result)
}

func defaultConfig() config {
	return config{minOps: 1000, setups: 3, warmups: 16, pool: 32, panel: 32, layerReps: 3, sizes: fullSizes}
}

// workloadInfo describes a workload for the result stamp.
var workloadInfo = map[string]struct {
	clients, tenants int
	mix              string
}{
	"serve-miss":  {1, 2, "distinct instances: 9-pt 64²–128² or 27-pt 16³–24³ (even odds), weights 1–9; GLL GZO GLF GKF SGK BD BDP best in equal shares; structured JSON"},
	"serve-hit":   {1, 2, "pool of 32 warmed instances of the serve-miss mix; tenants alternate; half structured JSON, half ivc text"},
	"solve-batch": {0, 0, "256² and 40³ × weights random 1–9, constant, heavy corner × GLL GZO GLF GKF SGK BD BDP PGLL(par=GOMAXPROCS); nil options"},
}

// run executes cfg's workload and writes the report to w. It returns the
// number of failed operations.
func run(cfg config, w io.Writer) (int, error) {
	info, ok := workloadInfo[cfg.workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	switch cfg.workload {
	case "serve-miss":
		// The daemon keeps its last 1024 jobs for GET /jobs/{id}. 1200
		// requests (by default) fill that window before the phase ends, so
		// heap_peak_mb reads the plateau on a slow host too.
		cfg.minOps = cfg.minOps * 6 / 5
	case "solve-batch":
		// A solve averages 50 ms, so 1000 would take a minute; 500 keep
		// five solves beyond p99, and the slowest solves of the fixed
		// sequence are the same in every pass.
		cfg.minOps /= 2
	}
	if cfg.trace {
		// A traced run times two phases (untraced and traced) for the
		// overhead report and then the layers; shorter phases keep it
		// about as long as an untraced run.
		cfg.seconds /= 2
		cfg.minOps /= 4
	}
	st := newStamp(cfg)
	st.Clients, st.Tenants, st.Mix = info.clients, info.tenants, info.mix
	t := &tally{}
	var (
		m   *metricSet
		err error
	)
	switch cfg.workload {
	case "solve-batch":
		var b *batchRun
		if b, err = newBatchRun(cfg, t); err == nil {
			m, err = b.run(&st)
		}
	default:
		m, err = newServeRun(cfg, cfg.workload == "serve-hit", t).run(&st)
	}
	if err != nil {
		return 0, err
	}
	return t.failed, emit(w, st, t, m)
}

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-miss, serve-hit or solve-batch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	failed, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations failed their checks\n", failed)
		os.Exit(1)
	}
}
