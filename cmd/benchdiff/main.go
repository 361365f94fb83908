// Command benchdiff compares two benchmark snapshots and gates on
// regressions: it parses BENCH_*.json reports written by cmd/ivcbench
// (or raw `go test -bench` text output), matches benchmarks by name,
// computes ns/op and allocs/op deltas, prints a delta table, and exits
// nonzero when any benchmark regressed beyond the noise threshold —
// the machine-checkable per-PR performance gate.
//
// Usage:
//
//	benchdiff OLD NEW                     compare two snapshots
//	benchdiff -threshold 0.15 OLD NEW     tolerate ±15% ns/op noise
//	benchdiff -threshold 15% OLD NEW      the same, in percent form
//	go test -bench=. ./... > new.txt
//	benchdiff BENCH_PR2.json new.txt      JSON and bench text mix freely
//
// Inputs are detected by content, not extension: a file whose first
// non-space byte is '{' parses as an ivcbench JSON report, anything
// else as `go test -bench` text. Benchmarks present in only one
// snapshot are listed as added/removed but never gate.
//
// The header names each side's host (cpu_model or "unknown", num_cpu).
// When they differ the comparison is cross-host: ns/op rows still print,
// but they do not gate, since a ns/op delta then mixes the host change
// with the code change; allocs/op rows gate either way, because an
// allocation count does not depend on the host.
//
// When both reports carry calibration_us, ivcbench's timing of a fixed
// kernel on the measuring host, the header prints both and a "cal"
// column quotes each ns/op delta with each side divided by its own
// calibration: what the delta would read on two hosts of equal speed.
// The column informs; it does not gate.
//
// A ns/op regression is new > old*(1+threshold). An allocs/op
// regression is any increase from zero (the 0 allocs/op pins are exact
// contracts, not noisy measurements) or an increase beyond the
// threshold otherwise. Improvements never gate.
//
// Exit status: 0 when no benchmark regressed, 1 on regression, 2 on
// usage or parse errors — including two snapshots that share no
// benchmark names at all, which would otherwise "pass" while gating
// nothing (a renamed suite must never green the perf gate by accident).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	thresholdArg := flag.String("threshold", "0.10",
		"relative noise threshold, a fraction (\"0.15\") or percentage (\"15%\"): ns/op (and nonzero allocs/op) may grow this much before gating")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold f|p%] OLD NEW")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr, `
noise policy:
  The threshold absorbs run-to-run timer noise, not real regressions:
  pick it from the benchmark's observed variance (rerun the old
  snapshot and look at the spread), never from how much slack a change
  needs to pass. ns/op may grow up to the threshold before gating.
  allocs/op is treated as exact where it can be: any increase from 0
  gates regardless of the threshold (0 allocs/op pins are contracts),
  a nonzero count gets the relative threshold. Improvements never
  gate. Benchmarks present in only one snapshot never gate. Between
  snapshots whose cpu_model or num_cpu differ, ns/op does not gate
  (allocs/op still does).`)
	}
	flag.Parse()
	threshold, err := parseThreshold(*thresholdArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldSnap, err := loadSnapshot(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newSnap, err := loadSnapshot(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	d := diff(oldSnap, newSnap, threshold)
	fmt.Print(render(d, oldSnap, newSnap))
	switch exitStatus(d) {
	case 2:
		fmt.Fprintln(os.Stderr, "benchdiff: the snapshots share no benchmark names; nothing was compared, so nothing was gated")
		os.Exit(2)
	case 1:
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed beyond %.0f%%\n",
			len(d.Regressions), threshold*100)
		os.Exit(1)
	}
}

// exitStatus is the gate decision: 2 when the snapshots shared no
// benchmark names (a gate that matched nothing must not pass), 1 when
// any shared benchmark regressed, 0 otherwise. Added and removed rows
// are deliberately absent from the rule — a one-sided row is
// informational, so a PR introducing a new benchmark (or retiring one)
// gates only on the rows both snapshots measured.
func exitStatus(d *Diff) int {
	if len(d.Deltas) == 0 {
		return 2
	}
	if len(d.Regressions) > 0 {
		return 1
	}
	return 0
}

// parseThreshold reads the -threshold argument: a bare fraction
// ("0.15") or a percentage with a % suffix ("15%"); both mean the same
// ±15% gate.
func parseThreshold(s string) (float64, error) {
	arg := strings.TrimSpace(s)
	scale := 1.0
	if cut, ok := strings.CutSuffix(arg, "%"); ok {
		arg, scale = strings.TrimSpace(cut), 0.01
	}
	v, err := strconv.ParseFloat(arg, 64)
	if err != nil {
		return 0, fmt.Errorf("threshold %q: want a fraction like 0.15 or a percentage like 15%%", s)
	}
	v *= scale
	if v < 0 || v != v {
		return 0, fmt.Errorf("threshold %q: must be non-negative", s)
	}
	return v, nil
}

// Bench is one benchmark measurement, the unit both input formats
// normalize to.
type Bench struct {
	// Name identifies the benchmark ("PlaceLowest/9pt"); go-test CPU
	// suffixes ("-8") are stripped so text and JSON names line up.
	Name string
	// NsPerOp is the measured nanoseconds per operation.
	NsPerOp float64
	// AllocsOp is allocations per operation; -1 when the input did not
	// report allocations (bench text without -benchmem), which disables
	// the allocs gate for that row.
	AllocsOp int64
}

// Snapshot is one parsed input file: its benchmarks by name plus
// whatever identifying metadata the format carried.
type Snapshot struct {
	// Path is the file the snapshot came from.
	Path string
	// Label identifies the snapshot in the table header (git commit for
	// ivcbench reports, the path otherwise).
	Label string
	// CPUModel and NumCPU identify the measuring host (ivcbench reports
	// only); "" and 0 when unknown.
	CPUModel string
	NumCPU   int
	// CalibrationUS is the report's host calibration (ivcbench reports
	// since they carry one); 0 when unknown.
	CalibrationUS float64
	// Benches maps benchmark name to measurement.
	Benches map[string]Bench
	// Order preserves the input's benchmark order for stable output.
	Order []string
}

// jsonReport mirrors the subset of the ivcbench Report schema benchdiff
// needs; unknown fields (sampler summaries, speedups) pass through
// unharmed.
type jsonReport struct {
	CPUModel      string  `json:"cpu_model"`
	NumCPU        int     `json:"num_cpu"`
	CalibrationUS float64 `json:"calibration_us"`
	Git           *struct {
		Commit string `json:"commit"`
		Dirty  bool   `json:"dirty"`
	} `json:"git"`
	Results []struct {
		Name     string  `json:"name"`
		NsPerOp  float64 `json:"ns_op"`
		AllocsOp int64   `json:"allocs_op"`
	} `json:"results"`
}

// loadSnapshot reads path and parses it as an ivcbench JSON report or
// as `go test -bench` text, detected by content.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		return parseJSON(path, data)
	}
	return parseBenchText(path, data)
}

// parseJSON decodes an ivcbench BENCH_*.json report.
func parseJSON(path string, data []byte) (*Snapshot, error) {
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	s := &Snapshot{Path: path, Label: path, Benches: map[string]Bench{},
		CPUModel: rep.CPUModel, NumCPU: rep.NumCPU, CalibrationUS: rep.CalibrationUS}
	if rep.Git != nil && rep.Git.Commit != "" {
		s.Label = shortCommit(rep.Git.Commit, rep.Git.Dirty)
	}
	for _, r := range rep.Results {
		s.add(Bench{Name: r.Name, NsPerOp: r.NsPerOp, AllocsOp: r.AllocsOp})
	}
	return s, nil
}

// shortCommit renders a 12-char commit id, marking dirty trees.
func shortCommit(commit string, dirty bool) string {
	if len(commit) > 12 {
		commit = commit[:12]
	}
	if dirty {
		commit += "+dirty"
	}
	return commit
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkPlaceLowest/9pt-8  1000000  123.4 ns/op  16 B/op  2 allocs/op
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:\s+[0-9.e+]+ B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBenchText scans `go test -bench` output; lines that are not
// benchmark results (PASS, ok, package headers) are skipped.
func parseBenchText(path string, data []byte) (*Snapshot, error) {
	s := &Snapshot{Path: path, Label: path, Benches: map[string]Bench{}}
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		b := Bench{Name: m[1], NsPerOp: ns, AllocsOp: -1}
		if m[3] != "" {
			allocs, err := strconv.ParseInt(m[3], 10, 64)
			if err == nil {
				b.AllocsOp = allocs
			}
		}
		s.add(b)
	}
	if len(s.Benches) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines recognized (neither ivcbench JSON nor `go test -bench` output)", path)
	}
	return s, nil
}

// add records b, keeping first-seen order; duplicate names (repeated
// -count runs) keep the later measurement.
func (s *Snapshot) add(b Bench) {
	if _, seen := s.Benches[b.Name]; !seen {
		s.Order = append(s.Order, b.Name)
	}
	s.Benches[b.Name] = b
}

// Delta is one matched benchmark's old/new comparison.
type Delta struct {
	// Name is the benchmark name shared by both snapshots.
	Name string
	// Old and New are the matched measurements.
	Old, New Bench
	// NsRatio is New.NsPerOp / Old.NsPerOp (1.0 = unchanged).
	NsRatio float64
	// CalRatio is NsRatio with each side's ns/op divided by its
	// snapshot's calibration; 0 when either calibration is unknown.
	CalRatio float64
	// NsRegressed marks a ns/op increase beyond the threshold; it gates
	// only when both snapshots come from one host.
	NsRegressed bool
	// AllocsRegressed marks an allocs/op increase beyond the gate (any
	// increase from zero; relative threshold otherwise).
	AllocsRegressed bool
}

// Diff is the full comparison of two snapshots.
type Diff struct {
	// Deltas holds the matched benchmarks in old-snapshot order.
	Deltas []Delta
	// Regressions is the subset of Deltas that gates (either metric).
	Regressions []Delta
	// Added and Removed are names present in only one snapshot.
	Added, Removed []string
	// Threshold is the relative noise threshold the gate used.
	Threshold float64
	// CrossHost marks snapshots from different hosts: their ns/op
	// regressions are reported but do not gate.
	CrossHost bool
}

// diff matches benchmarks by name and classifies every matched pair.
func diff(oldSnap, newSnap *Snapshot, threshold float64) *Diff {
	d := &Diff{Threshold: threshold, CrossHost: oldSnap.host() != newSnap.host()}
	for _, name := range oldSnap.Order {
		ob := oldSnap.Benches[name]
		nb, ok := newSnap.Benches[name]
		if !ok {
			d.Removed = append(d.Removed, name)
			continue
		}
		dl := Delta{Name: name, Old: ob, New: nb}
		if ob.NsPerOp > 0 {
			dl.NsRatio = nb.NsPerOp / ob.NsPerOp
			dl.NsRegressed = dl.NsRatio > 1+threshold
			if oldSnap.CalibrationUS > 0 && newSnap.CalibrationUS > 0 {
				dl.CalRatio = dl.NsRatio * oldSnap.CalibrationUS / newSnap.CalibrationUS
			}
		}
		dl.AllocsRegressed = allocsRegressed(ob.AllocsOp, nb.AllocsOp, threshold)
		d.Deltas = append(d.Deltas, dl)
		if (dl.NsRegressed && !d.CrossHost) || dl.AllocsRegressed {
			d.Regressions = append(d.Regressions, dl)
		}
	}
	for _, name := range newSnap.Order {
		if _, ok := oldSnap.Benches[name]; !ok {
			d.Added = append(d.Added, name)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// allocsRegressed gates allocations per op: unknown counts (-1) never
// gate, any increase from zero gates (the 0 allocs/op pins are exact
// contracts), and a nonzero baseline may grow by the threshold before
// gating — allocation counts are deterministic, but a shared threshold
// keeps the two gates explainable as one rule.
func allocsRegressed(old, new int64, threshold float64) bool {
	if old < 0 || new < 0 || new <= old {
		return false
	}
	if old == 0 {
		return true
	}
	return float64(new-old) > threshold*float64(old)
}

// render formats the delta table plus added/removed notes.
func render(d *Diff, oldSnap, newSnap *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchdiff: %s (%s) -> %s (%s), threshold %.0f%%\n",
		oldSnap.Path, oldSnap.Label, newSnap.Path, newSnap.Label, d.Threshold*100)
	fmt.Fprintf(&b, "hosts: old %s; new %s\n", oldSnap.host(), newSnap.host())
	fmt.Fprintf(&b, "calibration: old %s; new %s\n", fmtCal(oldSnap.CalibrationUS), fmtCal(newSnap.CalibrationUS))
	if d.CrossHost {
		b.WriteString("note: cross-host comparison: ns/op deltas mix the host change with the code change, so only allocs/op gates\n")
	}
	w := 0
	for _, dl := range d.Deltas {
		if len(dl.Name) > w {
			w = len(dl.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s %14s %14s %8s %8s %8s %8s  %s\n",
		w, "benchmark", "old ns/op", "new ns/op", "delta", "cal", "old al", "new al", "verdict")
	for _, dl := range d.Deltas {
		verdict := "ok"
		nsGated := dl.NsRegressed && !d.CrossHost
		switch {
		case nsGated && dl.AllocsRegressed:
			verdict = "REGRESSION (ns/op, allocs/op)"
		case nsGated:
			verdict = "REGRESSION (ns/op)"
		case dl.AllocsRegressed:
			verdict = "REGRESSION (allocs/op)"
		case dl.NsRegressed:
			verdict = "slower (cross-host, not gated)"
		case dl.NsRatio > 0 && dl.NsRatio < 1-d.Threshold:
			verdict = "improved"
		}
		fmt.Fprintf(&b, "%-*s %14.1f %14.1f %+7.1f%% %8s %8s %8s  %s\n",
			w, dl.Name, dl.Old.NsPerOp, dl.New.NsPerOp, (dl.NsRatio-1)*100, fmtCalDelta(dl.CalRatio),
			fmtAllocs(dl.Old.AllocsOp), fmtAllocs(dl.New.AllocsOp), verdict)
	}
	for _, name := range d.Added {
		fmt.Fprintf(&b, "added:   %s (no baseline, not gated)\n", name)
	}
	for _, name := range d.Removed {
		fmt.Fprintf(&b, "removed: %s (present only in the old snapshot)\n", name)
	}
	fmt.Fprintf(&b, "%d compared, %d regressed, %d added, %d removed\n",
		len(d.Deltas), len(d.Regressions), len(d.Added), len(d.Removed))
	return b.String()
}

// host renders the snapshot's host for the table header.
func (s *Snapshot) host() string {
	model := "unknown"
	if s.CPUModel != "" {
		model = strconv.Quote(s.CPUModel)
	}
	return fmt.Sprintf("cpu_model %s num_cpu %d", model, s.NumCPU)
}

// fmtCal renders a snapshot's calibration for the header.
func fmtCal(us float64) string {
	if us <= 0 {
		return "unknown"
	}
	return strconv.FormatFloat(us, 'f', 1, 64) + " us"
}

// fmtCalDelta renders a calibrated-delta cell; "-" when either side's
// calibration is unknown.
func fmtCalDelta(r float64) string {
	if r <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (r-1)*100)
}

// fmtAllocs renders an allocs/op cell; unknown counts render as "-".
func fmtAllocs(a int64) string {
	if a < 0 {
		return "-"
	}
	return strconv.FormatInt(a, 10)
}
