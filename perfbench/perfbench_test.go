package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"stencilivc/internal/service"
)

// smallConfig is a run short enough for the test suite.
func smallConfig(workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.2, trace: trace,
		minOps: 20, setups: 1, warmups: 2, pool: 6, panel: 4, layerReps: 1,
		sizes: smallSizes,
	}
}

// benchSpec is the metric list BENCHMARK.json declares.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmall runs cfg and returns its printed lines and parsed result.
func runSmall(t *testing.T, cfg config) ([]string, result) {
	t.Helper()
	var out bytes.Buffer
	if _, err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", cfg.workload, err)
	}
	return lines, res
}

// printed reports whether some line prints name's value with unit.
func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range []string{"serve-miss", "serve-hit", "solve-batch"} {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			lines, res := runSmall(t, smallConfig(w, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !printed(lines, m.Name, m.Unit) {
					t.Errorf("%s trace=%v: metric %s [%s] missing or with the wrong unit (%+v)", w, trace, m.Name, m.Unit, got)
				}
			}
		}
	}
}

func TestHitRatioPerWorkload(t *testing.T) {
	for w, want := range map[string]float64{"serve-hit": 1, "serve-miss": 0} {
		_, res := runSmall(t, smallConfig(w, true))
		if got := res.Metrics["resultcache.hit_ratio"].Value; got != want {
			t.Errorf("%s: resultcache.hit_ratio = %v over the timed phase, want %v", w, got, want)
		}
	}
}

func TestTamperedResponseCountsAsFailed(t *testing.T) {
	cfg := smallConfig("serve-hit", false)
	cfg.tamper = func(op int, r *service.Result) {
		if op == 3 && len(r.Starts) > 0 {
			r.Starts[len(r.Starts)/2]++
		}
	}
	_, res := runSmall(t, cfg)
	if res.Failed != 1 || res.Correct {
		t.Fatalf("tampered response: failed=%d correct=%v, want one failure and correct=false", res.Failed, res.Correct)
	}
}

// TestServeWorkIsSeedIndependent pins that a cycle of serve blocks holds
// the same instance shapes and algorithms for every seed: only the order
// and the weights change, so throughput and p99 do not follow the seed.
func TestServeWorkIsSeedIndependent(t *testing.T) {
	shapes := func(seed uint64) map[string]int {
		out := map[string]int{}
		for i := range len(serveAlgs) * serveBlock {
			in := serveInstance(seed, streamTimed, i, fullSizes)
			out[fmt.Sprintf("%s %dx%dx%d", in.alg, in.x, in.y, in.z)]++
		}
		return out
	}
	a, b := shapes(7), shapes(8)
	if len(a) != len(b) {
		t.Fatalf("seed 7 makes %d distinct shapes, seed 8 %d", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Errorf("%s: %d instances with seed 7, %d with seed 8", k, n, b[k])
		}
	}
}

func TestQualityPanelIsSeedIndependent(t *testing.T) {
	a := smallConfig("serve-miss", false)
	b := a
	b.seed = 8
	_, ra := runSmall(t, a)
	_, rb := runSmall(t, b)
	if qa, qb := ra.Metrics["quality_ratio"].Value, rb.Metrics["quality_ratio"].Value; qa != qb || qa < 1 {
		t.Fatalf("quality_ratio %v (seed 7) vs %v (seed 8): want equal and >= 1", qa, qb)
	}
}
