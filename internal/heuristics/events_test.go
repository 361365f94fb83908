package heuristics

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// streamLine is the subset of an exported flight record these tests
// read; JSON field matching is case-insensitive.
type streamLine struct {
	Kind, Name, Detail string
	Arg                int64
}

// streamed returns options traced into a fresh recorder whose records
// stream to buf, plus the recorder.
func streamed(buf *bytes.Buffer) (*core.SolveOptions, *obsv.FlightRecorder) {
	rec := obsv.NewFlightRecorder(256, nil)
	rec.Export(buf)
	return &core.SolveOptions{TraceCtx: rec.NewContext("", "")}, rec
}

// streamLines decodes every JSON line of an Export stream.
func streamLines(t *testing.T, buf *bytes.Buffer) []streamLine {
	t.Helper()
	var out []streamLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var l streamLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		out = append(out, l)
	}
	return out
}

// TestRunEmitsSolveEvents: a dispatched solve streams its solve:<alg>
// span when it ends — the record that replaced solve.start and
// solve.finish — with the maxcolor as its arg and no error detail.
func TestRunEmitsSolveEvents(t *testing.T) {
	g := grid.MustGrid2D(8, 8)
	for v := range g.W {
		g.W[v] = int64(v%5) + 1
	}
	var buf bytes.Buffer
	opts, rec := streamed(&buf)
	c, err := Run(GLL, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	lines := streamLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("stream = %+v, want one solve:GLL span", lines)
	}
	if l := lines[0]; l.Kind != obsv.FlightKindSpan || l.Name != "solve:GLL" ||
		l.Arg != c.MaxColor(g) || l.Detail != "" {
		t.Errorf("solve span = %+v, want solve:GLL with arg %d", l, c.MaxColor(g))
	}
	if n := rec.Export(nil); n != 1 {
		t.Errorf("Export(nil) = %d, want 1", n)
	}
}

// TestRunEmitsSolveError: a failing solve still closes its solve:<alg>
// span, with the error as its detail, and a dispatch that fails
// validation (unknown algorithm) streams nothing at all.
func TestRunEmitsSolveError(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(8, 8)

	var buf bytes.Buffer
	opts, _ := streamed(&buf)
	if _, err := Run("no-such-alg", g, opts); err == nil {
		t.Fatal("unknown algorithm did not error")
	}
	if got := streamLines(t, &buf); len(got) != 0 {
		t.Fatalf("unknown-algorithm dispatch streamed %+v before validation", got)
	}

	_, err := Run(testCancelAlg, g, opts)
	if err == nil {
		t.Fatal("canceling algorithm did not error")
	}
	lines := streamLines(t, &buf)
	if len(lines) != 1 || lines[0].Name != "solve:"+string(testCancelAlg) ||
		!strings.Contains(lines[0].Detail, "canceled") {
		t.Fatalf("stream = %+v, want one solve:%s span with the cancellation as its detail",
			lines, testCancelAlg)
	}
}

// TestRunEmitsSolveErrorOnPanic: a recovered solver crash still closes
// the solve span, with the typed panic error as its detail, so stream
// readers never see a solve vanish.
func TestRunEmitsSolveErrorOnPanic(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(8, 8)
	var buf bytes.Buffer
	opts, _ := streamed(&buf)
	_, err := Run(testPanicAlg, g, opts)
	var se *core.SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *core.SolveError", err, err)
	}
	lines := streamLines(t, &buf)
	if len(lines) != 1 || lines[0].Name != "solve:"+string(testPanicAlg) || lines[0].Detail != se.Error() {
		t.Fatalf("stream = %+v, want one solve:%s span with detail %q", lines, testPanicAlg, se.Error())
	}
}

// TestPortfolioPartialEvent: a partial portfolio return records a
// solve.partial event with the winner as its detail and the completed
// count as its arg, and a panicked member records portfolio.drop with
// the member's error.
func TestPortfolioPartialEvent(t *testing.T) {
	registerChaosAlgs()
	g := grid.MustGrid2D(10, 10)
	for v := range g.W {
		g.W[v] = int64(v%7) + 1
	}
	var buf bytes.Buffer
	opts, _ := streamed(&buf)
	opts.PartialOnCancel = true
	_, winner, err := Portfolio(g, []Algorithm{GLL, testPanicAlg, testCancelAlg}, opts)
	if !errors.Is(err, core.ErrPartial) {
		t.Fatalf("err = %v, want core.ErrPartial (winner %q)", err, winner)
	}
	var sawDrop, sawPartial bool
	for _, l := range streamLines(t, &buf) {
		switch l.Name {
		case "portfolio.drop":
			sawDrop = true
			if l.Kind != obsv.FlightKindEvent || !strings.Contains(l.Detail, string(testPanicAlg)) {
				t.Errorf("portfolio.drop = %+v, want an event naming %s", l, testPanicAlg)
			}
		case "solve.partial":
			sawPartial = true
			if l.Kind != obsv.FlightKindEvent || l.Detail != string(winner) || l.Arg != 1 {
				t.Errorf("solve.partial = %+v, want winner %q completed 1", l, winner)
			}
		}
	}
	if !sawDrop {
		t.Errorf("stream %q lacks portfolio.drop for the panicked member", buf.String())
	}
	if !sawPartial {
		t.Errorf("stream %q lacks solve.partial", buf.String())
	}
}
