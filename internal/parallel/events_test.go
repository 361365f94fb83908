package parallel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
)

// streamLine is the subset of an exported flight record these tests
// read; JSON field matching is case-insensitive.
type streamLine struct {
	Span, Parent, Name, Detail string
	Arg                        int64
}

// decodeLines parses the JSON lines of an Export stream.
func decodeLines(t *testing.T, buf *bytes.Buffer) []streamLine {
	t.Helper()
	var out []streamLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l streamLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		out = append(out, l)
	}
	return out
}

// TestSolveEvents: a traced parallel solve streams one
// pgreedy/speculate span whose arg is the tile count, then exactly two
// round spans, numbered 0 and 1, each with a sweep child whose arg is
// the conflicts it found. Blind speculation forces halo conflicts, so
// round 0's sweep finds some and runs the one repair pass (one recolor
// span), and round 1's sweep finds none.
func TestSolveEvents(t *testing.T) {
	g := rand2D(t, 48, 48, 9, 23)
	rec := obsv.NewFlightRecorder(4096, nil)
	var buf bytes.Buffer
	rec.Export(&buf)
	c, err := Greedy(g, Config{TileSize: 6, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4, TraceCtx: rec.NewContext("", "")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, &buf)
	if n := rec.Export(nil); n != int64(len(lines)) {
		t.Errorf("Export(nil) = %d, want the %d lines written", n, len(lines))
	}

	wantTiles := int64(((48 + 5) / 6) * ((48 + 5) / 6))
	speculate := 0
	roundOf := map[string]int64{} // round span id -> round number
	var rounds []int64
	var sweeps []streamLine
	recolors := 0
	for _, l := range lines {
		switch l.Name {
		case "pgreedy/speculate":
			speculate++
			if l.Arg != wantTiles {
				t.Errorf("pgreedy/speculate arg = %d, want %d tiles", l.Arg, wantTiles)
			}
		case "round":
			roundOf[l.Span] = l.Arg
			rounds = append(rounds, l.Arg)
		case "sweep":
			sweeps = append(sweeps, l)
		case "recolor":
			recolors++
		case "tile", "pgreedy/repair":
		default:
			t.Errorf("unexpected record %+v", l)
		}
	}
	if speculate != 1 {
		t.Errorf("got %d pgreedy/speculate spans, want 1", speculate)
	}
	if len(rounds) != 2 || rounds[0] != 0 || rounds[1] != 1 {
		t.Fatalf("round spans %v, want [0 1]: one repair pass, then the confirming sweep", rounds)
	}
	if recolors != 1 {
		t.Errorf("%d recolor spans, want the one repair pass", recolors)
	}
	if len(sweeps) != len(rounds) {
		t.Fatalf("%d sweeps for %d rounds, want one each", len(sweeps), len(rounds))
	}
	for _, sw := range sweeps {
		r, ok := roundOf[sw.Parent]
		switch {
		case !ok:
			t.Errorf("sweep %+v does not sit under a round", sw)
		case r == 0 && sw.Arg <= 0:
			t.Errorf("round 0 sweep found %d conflicts, want > 0", sw.Arg)
		case r == 1 && sw.Arg != 0:
			t.Errorf("round 1 sweep found %d conflicts, want 0", sw.Arg)
		}
	}
}

// TestSolveEventsQuiet: streaming changes nothing about the solve — the
// untraced path is exercised under -race by every other test in this
// package; here we pin that a traced, streamed solve matches an
// untraced one and that the stream is not empty.
func TestSolveEventsQuiet(t *testing.T) {
	g := rand2D(t, 32, 32, 9, 31)
	base, err := Greedy(g, Config{TileSize: 5, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewFlightRecorder(64, nil)
	var buf bytes.Buffer
	rec.Export(&buf)
	logged, err := Greedy(g, Config{TileSize: 5, SpeculateBlind: true},
		&core.SolveOptions{Parallelism: 4, TraceCtx: rec.NewContext("", "")})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Start {
		if base.Start[v] != logged.Start[v] {
			t.Fatalf("streaming changed the coloring at vertex %d: %d != %d",
				v, base.Start[v], logged.Start[v])
		}
	}
	if buf.Len() == 0 {
		t.Error("traced solve streamed no records")
	}
}
