// STKDE: run the space-time kernel density estimation application of
// Section VII end to end — generate events, partition them into boxes,
// color the 27-pt stencil of box conflicts, and execute the kernel
// computation in parallel driven by the coloring.
//
// Run with:
//
//	go run ./examples/stkde
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"runtime"
	"time"

	"stencilivc"
)

func main() {
	// Synthetic disease outbreak: two spatial clusters flaring at
	// different times over a 64x64x64-unit space-time volume.
	rng := rand.New(rand.NewSource(11))
	bounds := stencilivc.Bounds{MinX: 0, MaxX: 64, MinY: 0, MaxY: 64, MinT: 0, MaxT: 64}
	var points []stencilivc.Point
	for i := 0; i < 6000; i++ {
		cx, cy, ct := 20.0, 20.0, 16.0
		if i%3 == 0 {
			cx, cy, ct = 44.0, 40.0, 44.0
		}
		points = append(points, stencilivc.Point{
			X: clamp(cx+rng.NormFloat64()*5, 0, 64),
			Y: clamp(cy+rng.NormFloat64()*5, 0, 64),
			T: clamp(ct+rng.NormFloat64()*8, 0, 64),
		})
	}

	// 8x8x8 boxes of 8 units each >= 2 * bandwidth 3.0.
	app, err := stencilivc.NewSTKDE(points, bounds, 64, 64, 64, 8, 8, 8, 3.0, 3.0)
	if err != nil {
		log.Fatal(err)
	}

	g := app.BoxGrid()
	fmt.Printf("events: %d, box grid: %dx%dx%d (27-pt stencil), lower bound %d colors\n",
		len(points), g.X(), g.Y(), g.Z(), stencilivc.LowerBound3D(g))

	t0 := time.Now()
	seq := app.Sequential()
	seqTime := time.Since(t0)
	fmt.Printf("sequential: %v\n\n", seqTime)

	workers := runtime.NumCPU()
	for _, alg := range stencilivc.Algorithms() {
		c, err := stencilivc.Solve3D(alg, g)
		if err != nil {
			log.Fatal(err)
		}
		t0 = time.Now()
		par, err := app.Parallel(c, workers)
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		fmt.Printf("%-4s colors=%-6d parallel(%d workers)=%v  speedup=%.2fx  maxdiff=%.2e\n",
			alg, c.MaxColor(g), workers, dt,
			seqTime.Seconds()/dt.Seconds(), maxDiff(seq, par))
	}
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
