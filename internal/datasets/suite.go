package datasets

import (
	"fmt"
	"math"
)

// Instance2D is one 2DS-IVC benchmark instance of the evaluation suite.
type Instance2D struct {
	Dataset    Name
	Projection Projection
	Bandwidth  float64 // fraction of each axis extent
	X, Y       int
	Weights    []int64 // row-major, from Voxelize2D
}

// Instance3D is one 3DS-IVC benchmark instance.
type Instance3D struct {
	Dataset   Name
	Bandwidth float64
	X, Y, Z   int
	Weights   []int64 // x-fastest, from Voxelize3D
}

// Label renders a human-readable instance id, e.g.
// "Dengue/xy/bw1⁄32/16x8".
func (in Instance2D) Label() string {
	return fmt.Sprintf("%s/%s/bw%.4f/%dx%d", in.Dataset, in.Projection, in.Bandwidth, in.X, in.Y)
}

// Label renders a human-readable instance id.
func (in Instance3D) Label() string {
	return fmt.Sprintf("%s/bw%.4f/%dx%dx%d", in.Dataset, in.Bandwidth, in.X, in.Y, in.Z)
}

// SuiteOptions controls suite size. The zero value reproduces the paper's
// full enumeration (all powers of two per axis plus the bandwidth-capped
// maximum); Stride subsamples the per-axis size lists for quick runs.
type SuiteOptions struct {
	// Seed feeds the dataset generators; the same seed always yields the
	// same suite.
	Seed int64
	// Stride > 1 keeps every Stride-th axis-size combination, shrinking
	// the suite roughly quadratically (2D) or cubically (3D).
	Stride int
	// MaxDim caps each grid dimension (0 = the bandwidth cap only).
	MaxDim int
}

func (o SuiteOptions) stride() int {
	if o.Stride < 1 {
		return 1
	}
	return o.Stride
}

// axisSizes lists the paper's grid sizes for one axis under a bandwidth
// fraction f: all powers of 2 that fit, plus the largest size that can
// accommodate the bandwidth (each region must be at least twice the
// bandwidth, so at most floor(1/(2f)) regions fit).
func axisSizes(f float64, maxDim int) []int {
	cap := int(math.Floor(1 / (2 * f)))
	if maxDim > 0 {
		cap = min(cap, maxDim)
	}
	if cap < 2 {
		return nil
	}
	var sizes []int
	for s := 2; s <= cap; s *= 2 {
		sizes = append(sizes, s)
	}
	if last := sizes[len(sizes)-1]; last != cap {
		sizes = append(sizes, cap)
	}
	return sizes
}

// Suite2D enumerates the full 2D instance suite: every dataset, every
// projection, every bandwidth, every (X, Y) size combination.
func Suite2D(opts SuiteOptions) ([]Instance2D, error) {
	var out []Instance2D
	stride := opts.stride()
	for _, name := range Names() {
		ds, err := Generate(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, bw := range ds.Bandwidths {
			sizes := axisSizes(bw, opts.MaxDim)
			for xi := 0; xi < len(sizes); xi += stride {
				for yi := 0; yi < len(sizes); yi += stride {
					for _, proj := range Projections() {
						g, err := Voxelize2D(ds.Points, ds.Bounds, proj, sizes[xi], sizes[yi])
						if err != nil {
							return nil, err
						}
						// The instance keeps the weights of a grid
						// nothing else holds.
						w, _, _, _ := g.Lattice()
						out = append(out, Instance2D{
							Dataset:    name,
							Projection: proj,
							Bandwidth:  bw,
							X:          g.X(),
							Y:          g.Y(),
							Weights:    w,
						})
					}
				}
			}
		}
	}
	return out, nil
}

// Suite3D enumerates the full 3D instance suite: every dataset, every
// bandwidth, every (X, Y, Z) size combination.
func Suite3D(opts SuiteOptions) ([]Instance3D, error) {
	var out []Instance3D
	stride := opts.stride()
	for _, name := range Names() {
		ds, err := Generate(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, bw := range ds.Bandwidths {
			sizes := axisSizes(bw, opts.MaxDim)
			for xi := 0; xi < len(sizes); xi += stride {
				for yi := 0; yi < len(sizes); yi += stride {
					for zi := 0; zi < len(sizes); zi += stride {
						g, err := Voxelize3D(ds.Points, ds.Bounds, sizes[xi], sizes[yi], sizes[zi])
						if err != nil {
							return nil, err
						}
						w, _, _, _ := g.Lattice()
						out = append(out, Instance3D{
							Dataset:   name,
							Bandwidth: bw,
							X:         g.X(),
							Y:         g.Y(),
							Z:         g.Z(),
							Weights:   w,
						})
					}
				}
			}
		}
	}
	return out, nil
}
