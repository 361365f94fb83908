package parallel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
)

// TestSolveEvents: an instrumented parallel solve logs one
// pgreedy.speculate event with the tile/worker geometry, then one
// pgreedy.repair event per fixpoint round. Blind speculation forces
// halo conflicts, so at least one repair round is guaranteed.
func TestSolveEvents(t *testing.T) {
	g := rand2D(t, 48, 48, 9, 23)
	var buf bytes.Buffer
	ev := obsv.NewJSONEventSink(&buf)
	c, err := Greedy(g, Config{TileSize: 6, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4, Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}

	type event struct {
		Msg        string `json:"msg"`
		Tiles      int    `json:"tiles"`
		Workers    int    `json:"workers"`
		Blind      bool   `json:"blind"`
		Round      int    `json:"round"`
		Conflicts  int64  `json:"conflicts"`
		Sequential bool   `json:"sequential"`
	}
	var events []event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) == 0 || events[0].Msg != "pgreedy.speculate" {
		t.Fatalf("first event = %+v, want pgreedy.speculate", events)
	}
	wantTiles := ((48 + 5) / 6) * ((48 + 5) / 6)
	if sp := events[0]; sp.Tiles != wantTiles || sp.Workers != 4 || !sp.Blind {
		t.Errorf("speculate event = %+v, want tiles %d workers 4 blind", sp, wantTiles)
	}
	repairs := 0
	for _, e := range events[1:] {
		if e.Msg != "pgreedy.repair" && e.Msg != "solve.fallback" {
			t.Errorf("unexpected event %+v after speculate", e)
			continue
		}
		if e.Msg == "pgreedy.repair" {
			if e.Round != repairs {
				t.Errorf("repair event round = %d, want %d (rounds are 0-based and ordered)",
					e.Round, repairs)
			}
			repairs++
			if e.Conflicts <= 0 {
				t.Errorf("repair round %d logged %d conflicts, want > 0", e.Round, e.Conflicts)
			}
		}
	}
	if repairs == 0 {
		t.Error("blind speculation produced no pgreedy.repair events")
	}
}

// TestSolveEventsQuiet: with no event sink attached the solve runs
// exactly as before — the nil-sink path is exercised under -race by
// every other test in this package; here we pin that an events-free
// solve emits nothing and matches the instrumented result.
func TestSolveEventsQuiet(t *testing.T) {
	g := rand2D(t, 32, 32, 9, 31)
	base, err := Greedy(g, Config{TileSize: 5, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logged, err := Greedy(g, Config{TileSize: 5, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4, Events: obsv.NewJSONEventSink(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Start {
		if base.Start[v] != logged.Start[v] {
			t.Fatalf("event logging changed the coloring at vertex %d: %d != %d",
				v, base.Start[v], logged.Start[v])
		}
	}
	if buf.Len() == 0 {
		t.Error("instrumented solve emitted no events")
	}
}
