package heuristics

import (
	"runtime/debug"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

func flightTestGrid(t *testing.T) *grid.Grid2D {
	t.Helper()
	w := make([]int64, 8*8)
	for i := range w {
		w[i] = int64(i%5 + 1)
	}
	g, err := grid.FromWeights2D(8, 8, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNilTraceCtxNoAllocs pins the disabled-tracing path at zero
// allocations: with no TraceContext in the options, the only cost Run
// pays for the flight-recorder feature is one nil compare yielding the
// zero FlightSpan. The trace-check tier relies on this staying free —
// the recorder is always-on in the service but absent in library use.
func TestNilTraceCtxNoAllocs(t *testing.T) {
	opts := &core.SolveOptions{}
	if n := testing.AllocsPerRun(200, func() {
		fs := startFlight(opts, "solve:GLL")
		if fs.Active() {
			t.Fatal("nil trace context produced an active span")
		}
		fs.EndDetail("", 0)
	}); n != 0 {
		t.Fatalf("disabled flight path allocates %v/op, want 0", n)
	}
}

// TestUntracedOptionsNoExtraAllocs: options without a trace context
// cost Run no allocation over nil options — Run copies the options only
// when its solve span is active.
func TestUntracedOptionsNoExtraAllocs(t *testing.T) {
	g := flightTestGrid(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(opts *core.SolveOptions) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(GLL, g, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	opts := &core.SolveOptions{Parallelism: 1}
	if with, bare := allocs(opts), allocs(nil); with != bare {
		t.Errorf("Run with untraced options allocates %v, with nil options %v", with, bare)
	}
}

// TestRunRecordsFlightSpans: a Run with a trace context attached
// records the solve span (with the maxcolor as its arg) parented under
// the caller's span, and solver-internal phases nest under the solve
// span — the per-request span tree the /debug/flight surface serves.
func TestRunRecordsFlightSpans(t *testing.T) {
	g := flightTestGrid(t)
	rec := obsv.NewFlightRecorder(256, nil)
	tc := rec.NewContext("job-1", "team-a")
	root := tc.Start("solve")
	opts := &core.SolveOptions{TraceCtx: root.Context()}
	c, err := Run("GLL", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	recs := rec.Snapshot(tc.TraceID(), "", "", 0)
	var solveRec *obsv.FlightRecord
	var rootSpan uint64
	for i := range recs {
		switch recs[i].Name {
		case "solve":
			rootSpan = recs[i].Span
		case "solve:GLL":
			solveRec = &recs[i]
		}
	}
	if solveRec == nil {
		t.Fatalf("no solve:GLL span in flight records: %+v", recs)
	}
	if rootSpan == 0 || solveRec.Parent != rootSpan {
		t.Errorf("solve:GLL parent = %#x, want root span %#x", solveRec.Parent, rootSpan)
	}
	if want := c.MaxColor(g); solveRec.Arg != want {
		t.Errorf("solve:GLL arg = %d, want maxcolor %d", solveRec.Arg, want)
	}
	if solveRec.Job != "job-1" || solveRec.Tenant != "team-a" {
		t.Errorf("solve:GLL identity = %q/%q, want job-1/team-a", solveRec.Job, solveRec.Tenant)
	}
}
