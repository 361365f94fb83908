package stkde

import (
	"fmt"
	"math"
	"sort"

	"stencilivc/internal/datasets"
	"stencilivc/internal/rectpart"
)

// NewRectilinear configures an STKDE computation over a non-uniform,
// rectilinear box partition given by interior cut coordinates per axis
// (the partitioning model of the paper's application setting, after
// Nicol). Every resulting box must still span at least twice the
// bandwidth on each axis, which keeps the conflict graph a 27-pt stencil.
func NewRectilinear(points []datasets.Point, bounds datasets.Bounds,
	vx, vy, vt int, cutsX, cutsY, cutsT []float64, bwS, bwT float64) (*App, error) {

	if !bounds.Valid() {
		return nil, fmt.Errorf("stkde: degenerate bounds")
	}
	if vx < 1 || vy < 1 || vt < 1 {
		return nil, fmt.Errorf("stkde: invalid voxel resolution %dx%dx%d", vx, vy, vt)
	}
	if bwS <= 0 || bwT <= 0 {
		return nil, fmt.Errorf("stkde: bandwidths must be positive")
	}
	ex, err := edgesFromCuts(cutsX, bounds.MinX, bounds.MaxX, 2*bwS)
	if err != nil {
		return nil, fmt.Errorf("stkde: x cuts: %w", err)
	}
	ey, err := edgesFromCuts(cutsY, bounds.MinY, bounds.MaxY, 2*bwS)
	if err != nil {
		return nil, fmt.Errorf("stkde: y cuts: %w", err)
	}
	et, err := edgesFromCuts(cutsT, bounds.MinT, bounds.MaxT, 2*bwT)
	if err != nil {
		return nil, fmt.Errorf("stkde: t cuts: %w", err)
	}
	a := &App{
		Points: points, Bounds: bounds,
		VX: vx, VY: vy, VT: vt,
		BX: len(ex) - 1, BY: len(ey) - 1, BT: len(et) - 1,
		BandwidthS: bwS, BandwidthT: bwT,
		edgesX: ex, edgesY: ey, edgesT: et,
	}
	a.binPoints()
	return a, nil
}

// NewBalanced builds an STKDE run whose box partition is load-balanced
// with Nicol's rectilinear refinement: the points are first histogrammed
// on a fine helper grid, rectpart.Partition chooses the cuts, and the
// cuts are converted back to coordinates. The box shape constraint (>=
// twice the bandwidth) is enforced by bounding each axis's part count.
func NewBalanced(points []datasets.Point, bounds datasets.Bounds,
	vx, vy, vt, bx, by, bt int, bwS, bwT float64, refine int) (*App, error) {

	if bx < 1 || by < 1 || bt < 1 {
		return nil, fmt.Errorf("stkde: invalid box partition %dx%dx%d", bx, by, bt)
	}
	// Histogram on a helper grid fine enough to place cuts meaningfully
	// but coarse enough that each helper cell can host a cut boundary
	// without violating the 2*bandwidth constraint.
	hx := maxCells(bounds.SpanX(), 2*bwS)
	hy := maxCells(bounds.SpanY(), 2*bwS)
	ht := maxCells(bounds.SpanT(), 2*bwT)
	if bx > hx || by > hy || bt > ht {
		return nil, fmt.Errorf("stkde: %dx%dx%d boxes cannot each span twice the bandwidth", bx, by, bt)
	}
	hist, err := datasets.Voxelize3D(points, bounds, hx, hy, ht)
	if err != nil {
		return nil, err
	}
	cuts, _, err := rectpart.Partition(hist, [3]int{bx, by, bt}, refine)
	if err != nil {
		return nil, err
	}
	toCoord := func(cuts []int, min, span float64, n int, minSpan float64) []float64 {
		out := make([]float64, len(cuts))
		for i, c := range cuts {
			out[i] = min + span*float64(c)/float64(n)
		}
		// The partitioner may leave empty parts (cuts on the boundary or
		// coinciding) on skewed loads; snap every cut into the feasible
		// band so each segment spans at least minSpan. Feasibility is
		// guaranteed because the part count was capped above.
		for i := range out {
			out[i] = math.Max(out[i], min+minSpan*float64(i+1))
		}
		for i := len(out) - 1; i >= 0; i-- {
			out[i] = math.Min(out[i], min+span-minSpan*float64(len(out)-i))
		}
		return out
	}
	return NewRectilinear(points, bounds, vx, vy, vt,
		toCoord(cuts[0], bounds.MinX, bounds.SpanX(), hx, 2*bwS),
		toCoord(cuts[1], bounds.MinY, bounds.SpanY(), hy, 2*bwS),
		toCoord(cuts[2], bounds.MinT, bounds.SpanT(), ht, 2*bwT),
		bwS, bwT)
}

// maxCells returns how many cells of minimum width fit in span.
func maxCells(span, minWidth float64) int {
	n := int(span / minWidth)
	return max(n, 1)
}

// edgesFromCuts validates interior cuts and returns the full edge array
// [min, cuts..., max], requiring each segment to span at least minSpan.
func edgesFromCuts(cuts []float64, min, max, minSpan float64) ([]float64, error) {
	edges := make([]float64, 0, len(cuts)+2)
	edges = append(edges, min)
	for _, c := range cuts {
		if c <= min || c >= max {
			return nil, fmt.Errorf("cut %v outside (%v, %v)", c, min, max)
		}
		edges = append(edges, c)
	}
	edges = append(edges, max)
	if !sort.Float64sAreSorted(edges) {
		return nil, fmt.Errorf("cuts not increasing: %v", cuts)
	}
	for i := 0; i+1 < len(edges); i++ {
		if edges[i+1]-edges[i] < minSpan {
			return nil, fmt.Errorf("segment [%v, %v) narrower than %v",
				edges[i], edges[i+1], minSpan)
		}
	}
	return edges, nil
}
