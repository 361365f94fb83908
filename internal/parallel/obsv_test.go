package parallel

import (
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
)

// TestTraceSpans: a traced parallel solve records the two phases, one
// "tile" span per tile (its id in Arg) inside speculate, and numbered
// "round" spans under repair, each holding a "sweep" span. Run with
// -race this also proves concurrent tile workers may share one
// recorder.
func TestTraceSpans(t *testing.T) {
	g := rand2D(t, 48, 48, 9, 23)
	rec := obsv.NewFlightRecorder(4096, nil)
	c, err := Greedy(g, Config{TileSize: 6},
		&core.SolveOptions{Parallelism: 4, TraceCtx: rec.NewContext("", "")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}

	byName := map[string][]obsv.FlightRecord{}
	for _, r := range rec.Snapshot(0, "", "", 0) {
		byName[r.Name] = append(byName[r.Name], r)
	}
	if len(byName["pgreedy/speculate"]) != 1 || len(byName["pgreedy/repair"]) != 1 {
		t.Fatalf("want one speculate and one repair span; got %v", byName)
	}
	speculate, repair := byName["pgreedy/speculate"][0], byName["pgreedy/repair"][0]
	wantTiles := ((48 + 5) / 6) * ((48 + 5) / 6)
	ids := map[int64]bool{}
	for _, sp := range byName["tile"] {
		ids[sp.Arg] = true
		if sp.Parent != speculate.Span {
			t.Errorf("tile %d: parent %d, want speculate %d", sp.Arg, sp.Parent, speculate.Span)
		}
		if sp.Start < speculate.Start || sp.Start+sp.WallNS > speculate.Start+speculate.WallNS {
			t.Errorf("tile %d [%d, +%d] escapes speculate [%d, +%d]", sp.Arg,
				sp.Start, sp.WallNS, speculate.Start, speculate.WallNS)
		}
	}
	if len(byName["tile"]) != wantTiles || len(ids) != wantTiles {
		t.Errorf("%d tile spans over %d tile ids, want %d of each", len(byName["tile"]), len(ids), wantTiles)
	}
	rounds := map[uint64]bool{}
	for i, sp := range byName["round"] {
		rounds[sp.Span] = true
		if sp.Parent != repair.Span || sp.Arg != int64(i) {
			t.Errorf("round span %d: parent %d arg %d, want repair %d and arg %d", i, sp.Parent, sp.Arg, repair.Span, i)
		}
	}
	swept := map[uint64]bool{}
	for _, sp := range byName["sweep"] {
		swept[sp.Parent] = true
	}
	if len(rounds) == 0 || len(swept) != len(rounds) {
		t.Errorf("%d rounds, %d with a sweep span; want every round swept", len(rounds), len(swept))
	}
	for _, sp := range append(byName["sweep"], byName["recolor"]...) {
		if !rounds[sp.Parent] {
			t.Errorf("%s span parent %d is not a round", sp.Name, sp.Parent)
		}
	}
}

// TestSolveMetrics: the metrics bundle attached to a parallel solve
// counts every placement at least once (repairs re-place) and keeps the
// conflict ledger consistent: a solve runs at most one repair pass, only
// when conflicts exist, and that pass repairs every detected conflict.
func TestSolveMetrics(t *testing.T) {
	g := rand2D(t, 40, 40, 9, 29)
	m := obsv.NewSolveMetrics(obsv.NewRegistry())
	c, err := Greedy(g, Config{TileSize: 5},
		&core.SolveOptions{Parallelism: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if got := m.Vertices.Value(); got < int64(g.Len()) {
		t.Errorf("vertices colored = %d, want >= %d", got, g.Len())
	}
	if m.Probes.Value() <= 0 {
		t.Error("no probes counted")
	}
	if m.OccLen.Count() != m.Vertices.Value() {
		t.Errorf("occupancy histogram count = %d, want %d (one observation per placement)",
			m.OccLen.Count(), m.Vertices.Value())
	}
	conflicts, repairs, rounds := m.Conflicts.Value(), m.Repairs.Value(), m.RepairRounds.Value()
	if repairs != conflicts {
		t.Errorf("repaired %d of %d detected conflicts; a valid coloring repairs all", repairs, conflicts)
	}
	if rounds > 1 {
		t.Errorf("%d repair rounds, want at most one pass", rounds)
	}
	if conflicts > 0 && rounds == 0 {
		t.Errorf("%d conflicts but 0 repair rounds", conflicts)
	}
	if rounds == 0 && conflicts == 0 && repairs != 0 {
		t.Error("repairs counted without conflicts")
	}
}
