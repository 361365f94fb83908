package main

import (
	"fmt"

	"stencilivc"
)

// SolveWithTrace is the observability recipe this example demonstrates:
// it runs one solve under a private flight recorder and hands back the
// recorded spans — the solve itself and every phase inside it.
func SolveWithTrace(alg stencilivc.Algorithm, s stencilivc.Stencil,
	opts *stencilivc.SolveOptions) (stencilivc.Coloring, []stencilivc.FlightRecord, error) {
	var o stencilivc.SolveOptions
	if opts != nil {
		o = *opts
	}
	rec := stencilivc.NewFlightRecorder(0, nil)
	o.TraceCtx = rec.NewContext("", "")
	c, err := stencilivc.Solve(alg, s, &o)
	return c, rec.Snapshot(0, "", "", 0), err
}

// ExampleSolveWithTrace traces a solve and reads its spans: the solve
// itself, with BDP's decompose and post-optimization phases nested under
// it. The same records render for chrome://tracing with
// stencilivc.WriteChromeTrace (see the README's "Observing a solve"
// section).
func ExampleSolveWithTrace() {
	g := stencilivc.MustGrid2D(64, 64)
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, int64(v%7)+1)
	}

	_, spans, err := SolveWithTrace(stencilivc.BDP, g, nil)
	if err != nil {
		panic(err)
	}

	names := map[uint64]string{0: "(root)"}
	for _, sp := range spans {
		names[sp.Span] = sp.Name
	}
	for _, sp := range spans {
		fmt.Println(sp.Name, "under", names[sp.Parent])
	}
	// Output:
	// solve:BDP under (root)
	// BDP/decompose under solve:BDP
	// BDP/post under solve:BDP
}
