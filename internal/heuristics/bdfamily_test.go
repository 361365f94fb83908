package heuristics

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// TestBDFamilyPins pins what BD, BDP and BDL report on a 9-pt grid and
// on three 27-pt shapes (one layer deep, one row deep, and a full
// 4×4×3 box), all with weights v%7+1: the exact Stats placements and
// probes, and the flight span tree, each record as "name<parent name"
// in span-id order. BDL runs on the 27-pt grids only.
func TestBDFamilyPins(t *testing.T) {
	weights := func(n int) []int64 {
		w := make([]int64, n)
		for v := range w {
			w[v] = int64(v%7 + 1)
		}
		return w
	}
	g2, err := grid.FromWeights2D(5, 4, weights(20))
	if err != nil {
		t.Fatal(err)
	}
	grid3 := func(x, y, z int) *grid.Grid3D {
		g, err := grid.FromWeights3D(x, y, z, weights(x*y*z))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	bdp := []string{"solve:BDP<", "BDP/decompose<solve:BDP", "BDP/post<solve:BDP"}
	bdl := func(layers int) []string {
		tree := []string{"solve:BDL<"}
		for range layers {
			tree = append(tree, "BDP/decompose<solve:BDL", "BDP/post<solve:BDL")
		}
		return tree
	}
	type pin struct {
		alg                Algorithm
		placements, probes int64
		tree               []string
	}
	cases := []struct {
		name string
		s    grid.Stencil
		pins []pin
	}{
		{"2D 5x4", g2, []pin{
			{BD, 20, 0, []string{"solve:BD<"}},
			{BDP, 40, 110, bdp},
		}},
		{"3D 5x4x1", grid3(5, 4, 1), []pin{
			{BD, 20, 0, []string{"solve:BD<"}},
			{BDP, 40, 110, bdp},
			{BDL, 60, 220, bdl(1)},
		}},
		{"3D 5x1x4", grid3(5, 1, 4), []pin{
			{BD, 20, 0, []string{"solve:BD<"}},
			{BDP, 40, 110, bdp},
			{BDL, 60, 142, bdl(4)},
		}},
		{"3D 4x4x3", grid3(4, 4, 3), []pin{
			{BD, 48, 0, []string{"solve:BD<"}},
			{BDP, 96, 652, bdp},
			{BDL, 144, 904, bdl(3)},
		}},
	}
	for _, tc := range cases {
		for _, p := range tc.pins {
			var st core.Stats
			rec := obsv.NewFlightRecorder(256, nil)
			opts := &core.SolveOptions{Stats: &st, TraceCtx: rec.NewContext("pin", "t")}
			c, err := Run(p.alg, tc.s, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.alg, err)
			}
			if err := c.Validate(tc.s); err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.alg, err)
			}
			if st.Placements() != p.placements || st.Probes() != p.probes {
				t.Errorf("%s %s: placements/probes = %d/%d, want %d/%d",
					tc.name, p.alg, st.Placements(), st.Probes(), p.placements, p.probes)
			}
			if tree := spanTree(rec.Snapshot(0, "", "", 0)); !slices.Equal(tree, p.tree) {
				t.Errorf("%s %s: span tree\n  %s\nwant\n  %s", tc.name, p.alg,
					strings.Join(tree, "\n  "), strings.Join(p.tree, "\n  "))
			}
		}
	}
}

// spanTree renders records as "name<parent name" in span-id order, the
// order their spans were opened; a root's parent name is empty.
func spanTree(recs []obsv.FlightRecord) []string {
	slices.SortFunc(recs, func(a, b obsv.FlightRecord) int { return cmp.Compare(a.Span, b.Span) })
	names := map[uint64]string{}
	for _, r := range recs {
		names[r.Span] = r.Name
	}
	tree := make([]string, len(recs))
	for i, r := range recs {
		tree[i] = r.Name + "<" + names[r.Parent]
	}
	return tree
}
