package datasets

import (
	"fmt"

	"stencilivc/internal/grid"
)

// Projection selects a 2D plane for 2DS-IVC instances (the paper projects
// each dataset onto xy, xt, and yt).
type Projection string

// The three projections of Section VI-A.
const (
	XY Projection = "xy"
	XT Projection = "xt"
	YT Projection = "yt"
)

// Projections returns the planes in the paper's order.
func Projections() []Projection { return []Projection{XY, XT, YT} }

// project maps a point onto the chosen plane, returning (a, b) coordinates
// and the (aSpan, bSpan) of the bounds.
func project(p Point, b Bounds, proj Projection) (a, bb, aMin, aSpan, bMin, bSpan float64, err error) {
	switch proj {
	case XY:
		return p.X, p.Y, b.MinX, b.SpanX(), b.MinY, b.SpanY(), nil
	case XT:
		return p.X, p.T, b.MinX, b.SpanX(), b.MinT, b.SpanT(), nil
	case YT:
		return p.Y, p.T, b.MinY, b.SpanY(), b.MinT, b.SpanT(), nil
	default:
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("datasets: unknown projection %q", proj)
	}
}

// Voxelize2D bins the points of a dataset projection onto an X×Y grid;
// each cell's weight is its event count, exactly how the paper turns a
// dataset into a 2DS-IVC instance.
func Voxelize2D(points []Point, bounds Bounds, proj Projection, x, y int) (*grid.Grid2D, error) {
	if !bounds.Valid() {
		return nil, fmt.Errorf("datasets: degenerate bounds %+v", bounds)
	}
	g, err := grid.NewGrid2D(x, y)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		a, b, aMin, aSpan, bMin, bSpan, err := project(p, bounds, proj)
		if err != nil {
			return nil, err
		}
		i := binIndex(a, aMin, aSpan, x)
		j := binIndex(b, bMin, bSpan, y)
		if i < 0 || j < 0 {
			continue // outside the declared bounds; skip silently like the app does
		}
		g.Set(i, j, g.At(i, j)+1)
	}
	return g, nil
}

// Voxelize3D bins the points onto an X×Y×Z grid over (x, y, t).
func Voxelize3D(points []Point, bounds Bounds, x, y, z int) (*grid.Grid3D, error) {
	if !bounds.Valid() {
		return nil, fmt.Errorf("datasets: degenerate bounds %+v", bounds)
	}
	g, err := grid.NewGrid3D(x, y, z)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		i := binIndex(p.X, bounds.MinX, bounds.SpanX(), x)
		j := binIndex(p.Y, bounds.MinY, bounds.SpanY(), y)
		k := binIndex(p.T, bounds.MinT, bounds.SpanT(), z)
		if i < 0 || j < 0 || k < 0 {
			continue
		}
		g.Set(i, j, k, g.At(i, j, k)+1)
	}
	return g, nil
}

// binIndex maps v in [min, min+span] to a bin in [0, n); values on the
// upper edge land in the last bin, values outside return -1.
func binIndex(v, min, span float64, n int) int {
	if span <= 0 {
		return -1
	}
	f := (v - min) / span
	if f < 0 || f > 1 {
		return -1
	}
	i := int(f * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
