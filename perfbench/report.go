package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// Metric units, as printed and as recorded in BENCHMARK.json.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitNS    = "ns"
	unitUS    = "us"
	unitRPS   = "1/s"
	unitMVPS  = "Mvertex/s"
	unitRatio = "ratio"
	unitMB    = "MB"
	unitKB    = "KB"
	unitCount = "count"
	unitBytes = "bytes"
	unitPct   = "%"
)

// endToEnd lists the end-to-end metrics every untraced run prints, in
// order, with their units. Every time among them is CPU time of this
// process, scaled by the calibration kernel (calibrate.go): on a shared
// host, wall time moved by a third between runs of the same code, and
// raw CPU time by a fifth. The wall-clock view is printed by traced runs
// (wall.*).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", unitS},
	{"ops_per_cpu_s", unitRPS},
	{"op_cpu_p50_ms", unitMS},
	{"op_cpu_p99_ms", unitMS},
	{"mvertex_per_cpu_s", unitMVPS},
	{"quality_ratio", unitRatio},
	{"heap_peak_mb", unitMB},
}

// metricSet is an ordered name → value/unit list.
type metricSet struct {
	names []string
	vals  map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metricValue{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

func (m *metricSet) get(name string) float64 { return m.vals[name].Value }

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

// check records one checked operation; err != nil marks it failed.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the stamp, every metric by name with its unit, and the
// result object as the last line.
func emit(w io.Writer, st stamp, t *tally, m *metricSet) error {
	fmt.Fprintln(w, st)
	fmt.Fprintf(w, "ops attempted=%d succeeded=%d failed=%d\n", t.attempted, t.attempted-t.failed, t.failed)
	for _, e := range t.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, v.Value, v.Unit)
	}
	b, err := json.Marshal(result{
		Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted,
		Failed: t.failed, Metrics: m.vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// stamp identifies the host, build and run behind a result.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
	Clients    int            `json:"clients"`
	Tenants    int            `json:"tenants"`
	Mix        string         `json:"mix"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Dirty      string         `json:"dirty"`
	Samples    map[string]int `json:"samples"`
	// StealPct is the share of the CPUs' wall time the hypervisor gave
	// to other guests during the untraced timed phase; -1 if unknown.
	StealPct float64 `json:"steal_pct"`
	// CalibrationUS is the calibration kernel's median CPU time over the
	// untraced timed phase; the scaled times are quoted for calRef.
	CalibrationUS float64 `json:"calibration_us"`
}

func (s stamp) String() string {
	b, _ := json.Marshal(s) // a struct of strings and ints always encodes
	return "stamp " + string(b)
}

func newStamp(cfg config) stamp {
	st := stamp{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(),
		Commit: "unknown", Dirty: "unknown", Samples: map[string]int{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Dirty = s.Value
			}
		}
	}
	return st
}

// cpuModel reads the CPU model name on Linux; "unknown" elsewhere.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// windowedQuantile splits lat, in completion order, into windows of at
// least size operations and returns the median over windows of each
// window's q-quantile, so one burst moves the tail of one window only.
func windowedQuantile(lat []time.Duration, q float64, size int) time.Duration {
	n := max(len(lat)/size, 1)
	per := make([]float64, n)
	for w := range n {
		win := slices.Clone(lat[w*len(lat)/n : (w+1)*len(lat)/n])
		slices.Sort(win)
		per[w] = float64(quantile(win, q))
	}
	return time.Duration(median(per))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readRuntime reads one uint64 runtime/metrics sample.
func readRuntime(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapTracker keeps the highest heap sampled in each GC cycle; it is
// sampled after every operation of a timed phase. heap_peak_mb is the
// 98th percentile of those per-cycle peaks: the heap the phase peaks at,
// without letting one outlier cycle set it.
type heapTracker struct {
	cycle uint64
	peak  uint64
	peaks []float64
}

func (h *heapTracker) sample() {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	cycle, bytes := s[0].Value.Uint64(), s[1].Value.Uint64()
	if cycle != h.cycle {
		if h.peak > 0 {
			h.peaks = append(h.peaks, float64(h.peak))
		}
		h.cycle, h.peak = cycle, 0
	}
	h.peak = max(h.peak, bytes)
}

// peakBytes returns the 98th percentile of the per-cycle peaks, the open
// cycle included, and how many cycles it is taken over.
func (h *heapTracker) peakBytes() (float64, int) {
	peaks := slices.Clone(h.peaks)
	if h.peak > 0 {
		peaks = append(peaks, float64(h.peak))
	}
	if len(peaks) == 0 {
		return 0, 0
	}
	slices.Sort(peaks)
	i := int(math.Ceil(0.98*float64(len(peaks)))) - 1
	return peaks[max(i, 0)], len(peaks)
}

// allocBytes is the cumulative heap allocation count in bytes.
func allocBytes() uint64 { return readRuntime("/gc/heap/allocs:bytes") }

// cycles returns how many GC cycles p's heap peak is taken over.
func cycles(p *phase) int {
	_, n := p.heap.peakBytes()
	return n
}

// phase is one timed phase's raw measurements.
type phase struct {
	setup     []time.Duration // scaled CPU time of each set-up repetition
	lat       []time.Duration // wall time per operation
	cpu       []time.Duration // process CPU time per operation
	cal       []time.Duration // calibration kernel time after each operation
	calWall   time.Duration   // wall time spent calibrating
	start     time.Time       // start of the timed loop
	elapsed   time.Duration   // wall time of the timed loop, calibration excluded
	busy      time.Duration   // summed operation wall time (solve-batch)
	steal     int64           // steal ticks over the timed loop; -1 if unknown
	vertices  int64           // vertices of the completed operations
	passLen   int             // operations per pass (solve-batch)
	passVerts int64           // vertices per pass (solve-batch)
	quality   float64
	heap      heapTracker
}

// op records one timed operation and calibrates right after it.
func (p *phase) op(wall, cpu time.Duration, vertices int) {
	p.lat = append(p.lat, wall)
	p.cpu = append(p.cpu, cpu)
	p.vertices += int64(vertices)
	p.heap.sample()
	t0 := time.Now()
	p.cal = append(p.cal, calibrate())
	p.calWall += time.Since(t0)
}

// begin and end bracket the timed loop: its wall time and the host's
// steal over it.
func (p *phase) begin() { p.start, p.steal = time.Now(), stealTicks() }

func (p *phase) end() {
	p.elapsed = time.Since(p.start) - p.calWall
	if s1 := stealTicks(); p.steal >= 0 && s1 >= 0 {
		p.steal = s1 - p.steal
	} else {
		p.steal = -1
	}
}

// stealPct is the share of the CPUs' wall time over the phase that the
// hypervisor gave to other guests (/proc/stat counts 100 ticks a second).
func (p *phase) stealPct() float64 {
	if p.steal < 0 || p.elapsed <= 0 {
		return -1
	}
	return float64(p.steal) / ((p.elapsed + p.calWall).Seconds() * float64(runtime.NumCPU()))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// endToEnd computes the end-to-end metrics of p, all on scaled CPU time:
// an operation's CPU time is the process CPU clock across its call, so it
// covers every goroutine that worked for it (daemon workers, PGLL tiles,
// the GC) and leaves out idle waits and the time the host ran other
// guests; scale then quotes it for the reference host speed.
func (p *phase) endToEnd(m *metricSet, prefix string) {
	scaled := scale(p.cpu, p.cal)
	sorted := slices.Clone(scaled)
	slices.Sort(sorted)
	setups := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setups[i] = d.Seconds()
	}
	total := sum(scaled)
	mv := float64(p.vertices) / total.Seconds() / 1e6
	if p.passLen > 0 {
		// The median over whole passes of the solve sequence.
		var per []float64
		for k := p.passLen; k <= len(scaled); k += p.passLen {
			per = append(per, float64(p.passVerts)/sum(scaled[k-p.passLen:k]).Seconds()/1e6)
		}
		mv = median(per)
	}
	heap, _ := p.heap.peakBytes()
	vals := map[string]float64{
		"setup_s":           median(setups),
		"ops_per_cpu_s":     float64(len(scaled)) / total.Seconds(),
		"op_cpu_p50_ms":     ms(quantile(sorted, 0.50)),
		"op_cpu_p99_ms":     ms(windowedQuantile(scaled, 0.99, 1000)),
		"mvertex_per_cpu_s": mv,
		"quality_ratio":     p.quality,
		"heap_peak_mb":      heap / (1 << 20),
	}
	for _, e := range endToEnd {
		m.set(prefix+e.name, vals[e.name], e.unit)
	}
}

// wallMetrics records what a caller waits for in wall time over p, and
// how much of it the host's other guests took. Serve workloads rate
// requests against the closed loop's wall time; solve-batch rates solves
// against the wall time spent inside the solver calls.
func (p *phase) wallMetrics(m *metricSet) {
	lat := slices.Clone(p.lat)
	slices.Sort(lat)
	wall := p.elapsed
	if p.busy > 0 {
		wall = p.busy
	}
	m.set("wall.throughput_rps", float64(len(p.lat))/wall.Seconds(), unitRPS)
	m.set("wall.latency_p50_ms", ms(quantile(lat, 0.50)), unitMS)
	m.set("wall.latency_p99_ms", ms(windowedQuantile(p.lat, 0.99, 1000)), unitMS)
	m.set("wall.steal_pct", max(p.stealPct(), 0), unitPct)
	m.set("host.calibration_us", p.calibrationUS(), unitUS)
}

// calibrationUS is the calibration kernel's median CPU time over p.
func (p *phase) calibrationUS() float64 {
	cal := slices.Clone(p.cal)
	slices.Sort(cal)
	return float64(quantile(cal, 0.5)) / 1e3
}

// stampHost records the host's steal and speed over p in st.
func (p *phase) stampHost(st *stamp) {
	st.StealPct, st.CalibrationUS = p.stealPct(), p.calibrationUS()
}
