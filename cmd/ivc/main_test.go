package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stencilivc"
	"stencilivc/internal/parallel"
)

// TestTraceAndStats drives -trace and -stats in process: a PGLL solve
// over 3×3 default tiles on two workers, run through setupObs and its
// finalizer, must write a Chrome trace that parses and holds the solve,
// its speculate phase and every tile, with each row nesting spans only
// directly inside their parents, and must print a -stats table with a
// row per span name.
func TestTraceAndStats(t *testing.T) {
	n := 3 * parallel.DefaultTileSize2D
	g := stencilivc.MustGrid2D(n, n)
	for v := range g.W {
		g.W[v] = int64(v*7%9 + 1)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	opts := &stencilivc.SolveOptions{Parallelism: 2, Stats: &stencilivc.Stats{}}
	var out bytes.Buffer
	done, err := setupObs(context.Background(), &out, obsConfig{tracePath: path, stats: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stencilivc.Solve(stencilivc.PGLL, g, opts); err != nil {
		t.Fatal(err)
	}
	if err := done(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	parentOf := map[string]string{
		"pgreedy/speculate": "solve:PGLL", "pgreedy/repair": "solve:PGLL",
		"tile": "pgreedy/speculate", "round": "pgreedy/repair",
		"sweep": "round", "recolor": "round",
	}
	count := map[string]int{}
	rows := map[int][]event{} // per row, the spans open at the current event
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		count[ev.Name]++
		open := rows[ev.Tid]
		// The 1e-3 µs (1 ns) slack absorbs float rounding of
		// back-to-back spans.
		for len(open) > 0 && open[len(open)-1].Ts+open[len(open)-1].Dur <= ev.Ts+1e-3 {
			open = open[:len(open)-1]
		}
		if len(open) > 0 && open[len(open)-1].Name != parentOf[ev.Name] {
			t.Errorf("row %d: %s sits inside %s, want its parent %q",
				ev.Tid, ev.Name, open[len(open)-1].Name, parentOf[ev.Name])
		}
		rows[ev.Tid] = append(open, ev)
	}
	if count["solve:PGLL"] != 1 || count["pgreedy/speculate"] != 1 || count["tile"] < 9 {
		t.Errorf("span counts %v, want one solve:PGLL, one pgreedy/speculate and >= 9 tiles", count)
	}

	report := out.String()
	if !strings.Contains(report, "stats: placements=") {
		t.Errorf("-stats report lacks the counters:\n%s", report)
	}
	for _, name := range []string{"solve:PGLL", "pgreedy/speculate", "tile"} {
		if !strings.Contains(report, "  span "+name+" ") {
			t.Errorf("-stats report lacks a %s row:\n%s", name, report)
		}
	}
}
