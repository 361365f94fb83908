// Package stkde implements the Space-Time Kernel Density Estimation
// application of Section VII (after Saule et al., ICPP 2017): events in
// (x, y, t) contribute an Epanechnikov product kernel to every voxel
// within a spatial/temporal bandwidth. The space is partitioned into
// boxes no smaller than twice the bandwidth; each box is one sequential
// task, neighboring boxes conflict, and the conflict graph is exactly a
// 27-pt stencil whose task weights are the boxes' point counts — the
// 3DS-IVC instance this module's coloring algorithms solve. A coloring
// drives the real goroutine-pool executor in parallel.go.
package stkde

import (
	"fmt"
	"math"

	"stencilivc/internal/datasets"
	"stencilivc/internal/grid"
)

// App is a configured STKDE computation.
type App struct {
	Points []datasets.Point
	Bounds datasets.Bounds

	// Voxel resolution of the output density field.
	VX, VY, VT int
	// Box partition (the task grid); box extents must be at least twice
	// the bandwidth so only neighboring boxes conflict.
	BX, BY, BT int
	// Bandwidths: spatial (x and y) and temporal.
	BandwidthS, BandwidthT float64

	// Box edges per axis (len = count+1); uniform under New, arbitrary
	// rectilinear under NewRectilinear/NewBalanced.
	edgesX, edgesY, edgesT []float64

	boxPoints [][]int // per box, indices into Points
}

// New validates the configuration and pre-bins the points into boxes.
func New(points []datasets.Point, bounds datasets.Bounds,
	vx, vy, vt, bx, by, bt int, bwS, bwT float64) (*App, error) {

	if !bounds.Valid() {
		return nil, fmt.Errorf("stkde: degenerate bounds")
	}
	if vx < 1 || vy < 1 || vt < 1 {
		return nil, fmt.Errorf("stkde: invalid voxel resolution %dx%dx%d", vx, vy, vt)
	}
	if bx < 1 || by < 1 || bt < 1 {
		return nil, fmt.Errorf("stkde: invalid box partition %dx%dx%d", bx, by, bt)
	}
	if bwS <= 0 || bwT <= 0 {
		return nil, fmt.Errorf("stkde: bandwidths must be positive")
	}
	// The partition constraint of Section VII: a box must span at least
	// twice the bandwidth, so a box's writes (own extent + bandwidth halo)
	// can only overlap its 26 stencil neighbors.
	if bounds.SpanX()/float64(bx) < 2*bwS ||
		bounds.SpanY()/float64(by) < 2*bwS ||
		bounds.SpanT()/float64(bt) < 2*bwT {
		return nil, fmt.Errorf("stkde: boxes smaller than twice the bandwidth")
	}
	a := &App{
		Points: points, Bounds: bounds,
		VX: vx, VY: vy, VT: vt,
		BX: bx, BY: by, BT: bt,
		BandwidthS: bwS, BandwidthT: bwT,
		edgesX: uniformEdges(bounds.MinX, bounds.MaxX, bx),
		edgesY: uniformEdges(bounds.MinY, bounds.MaxY, by),
		edgesT: uniformEdges(bounds.MinT, bounds.MaxT, bt),
	}
	a.binPoints()
	return a, nil
}

func uniformEdges(min, max float64, n int) []float64 {
	edges := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		edges[i] = min + (max-min)*float64(i)/float64(n)
	}
	return edges
}

// binPoints assigns every in-bounds point to its box via the edge arrays.
func (a *App) binPoints() {
	a.boxPoints = make([][]int, a.BX*a.BY*a.BT)
	for pi, p := range a.Points {
		if !a.Bounds.Contains(p) {
			continue
		}
		i := binEdges(p.X, a.edgesX)
		j := binEdges(p.Y, a.edgesY)
		k := binEdges(p.T, a.edgesT)
		b := (k*a.BY+j)*a.BX + i
		a.boxPoints[b] = append(a.boxPoints[b], pi)
	}
}

// binEdges locates v among the edge boundaries: the result i satisfies
// edges[i] <= v < edges[i+1], clamped to the last box on the upper edge.
func binEdges(v float64, edges []float64) int {
	lo, hi := 0, len(edges)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v >= edges[mid] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// BoxGrid returns the 27-pt stencil coloring instance of this run: the
// box partition with each box weighted by its point count.
func (a *App) BoxGrid() *grid.Grid3D {
	g := grid.MustGrid3D(a.BX, a.BY, a.BT)
	for b, pts := range a.boxPoints {
		i, j, k := g.Coords(b)
		g.Set(i, j, k, int64(len(pts)))
	}
	return g
}

// NumVoxels returns the size of the output density field.
func (a *App) NumVoxels() int { return a.VX * a.VY * a.VT }

// Sequential computes the density field one box at a time, the reference
// result the parallel executor is checked against.
func (a *App) Sequential() []float64 {
	out := make([]float64, a.NumVoxels())
	for b := range a.boxPoints {
		a.processBox(b, out)
	}
	return out
}

// processBox scatters the kernel contributions of every point in box b.
// Writes stay within the bandwidth halo of the box, which is what makes
// coloring-driven parallelism race-free.
func (a *App) processBox(b int, out []float64) {
	vsx := a.Bounds.SpanX() / float64(a.VX)
	vsy := a.Bounds.SpanY() / float64(a.VY)
	vst := a.Bounds.SpanT() / float64(a.VT)
	for _, pi := range a.boxPoints[b] {
		p := a.Points[pi]
		iLo, iHi := voxelRange(p.X-a.BandwidthS, p.X+a.BandwidthS, a.Bounds.MinX, vsx, a.VX)
		jLo, jHi := voxelRange(p.Y-a.BandwidthS, p.Y+a.BandwidthS, a.Bounds.MinY, vsy, a.VY)
		kLo, kHi := voxelRange(p.T-a.BandwidthT, p.T+a.BandwidthT, a.Bounds.MinT, vst, a.VT)
		for k := kLo; k <= kHi; k++ {
			ct := a.Bounds.MinT + (float64(k)+0.5)*vst
			wt := epanechnikov((ct - p.T) / a.BandwidthT)
			if wt == 0 {
				continue
			}
			for j := jLo; j <= jHi; j++ {
				cy := a.Bounds.MinY + (float64(j)+0.5)*vsy
				wy := epanechnikov((cy - p.Y) / a.BandwidthS)
				if wy == 0 {
					continue
				}
				base := (k*a.VY + j) * a.VX
				for i := iLo; i <= iHi; i++ {
					cx := a.Bounds.MinX + (float64(i)+0.5)*vsx
					wx := epanechnikov((cx - p.X) / a.BandwidthS)
					if wx != 0 {
						out[base+i] += wx * wy * wt
					}
				}
			}
		}
	}
}

// voxelRange returns the inclusive voxel index range whose centers may
// fall inside [lo, hi].
func voxelRange(lo, hi, min, voxSize float64, n int) (int, int) {
	a := int(math.Floor((lo - min) / voxSize))
	b := int(math.Ceil((hi - min) / voxSize))
	if a < 0 {
		a = 0
	}
	if b > n-1 {
		b = n - 1
	}
	return a, b
}

// epanechnikov is the kernel K(u) = 0.75(1-u²) for |u| <= 1, else 0.
func epanechnikov(u float64) float64 {
	if u < -1 || u > 1 {
		return 0
	}
	return 0.75 * (1 - u*u)
}
