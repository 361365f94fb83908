// Command gapsearch looks for 2DS-IVC instances whose optimal coloring
// strictly exceeds both lower bounds of Section III (max clique and odd
// cycle minchain3), reproducing the phenomenon of the paper's Figure 3.
//
// Usage:
//
//	gapsearch [-x 5] [-y 3] [-maxw 7] [-trials 20000] [-seed 1] [-density 45]
//
// Every instance found is printed in the ivc2d text format together with
// its bounds and optimum.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"stencilivc/internal/bounds"
	"stencilivc/internal/exact"
	"stencilivc/internal/grid"
)

func main() {
	x := flag.Int("x", 5, "grid width")
	y := flag.Int("y", 3, "grid height")
	maxw := flag.Int64("maxw", 7, "maximum vertex weight")
	trials := flag.Int("trials", 20000, "number of random instances to try")
	seed := flag.Int64("seed", 1, "random seed")
	density := flag.Int("density", 45, "percent of cells with nonzero weight")
	stop := flag.Int("stop", 1, "stop after this many gap instances")
	structured := flag.Bool("structured", false,
		"randomize weights only on two adjacent induced C7 supports (the Figure 3 topology)")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	found := 0
	for trial := 0; trial < *trials && found < *stop; trial++ {
		var g *grid.Grid2D
		if *structured {
			g = grid.MustGrid2D(8, 6)
			for _, cell := range twoC7Support() {
				g.Set(cell[0], cell[1], 1+rng.Int63n(*maxw))
			}
		} else {
			g = grid.MustGrid2D(*x, *y)
			for v := range g.Len() {
				if rng.Intn(100) < *density {
					i, j := g.Coords(v)
					g.Set(i, j, 1+rng.Int63n(*maxw))
				}
			}
		}
		// Exhaustive odd-cycle bound: cycles up to the full vertex count.
		lb := bounds.Combined2D(g, 5_000_000)
		lb = max(lb, bounds.OddCycle(g, g.Len(), 5_000_000))
		res := exact.Optimize(g, exact.OptimizeOptions{
			LowerBound: lb,
			NodeBudget: 300_000,
		})
		if !res.Optimal || res.MaxColor <= lb {
			continue
		}
		found++
		fmt.Printf("# gap instance %d: lower bounds %d < optimum %d (trial %d, seed %d)\n",
			found, lb, res.MaxColor, trial, *seed)
		if err := grid.Write2D(os.Stdout, g); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
	}
	if found == 0 {
		fmt.Println("# no gap instance found; increase -trials or vary -seed")
		os.Exit(2)
	}
}

// twoC7Support returns the cells of two induced 7-cycles of the 9-pt
// stencil placed so that one vertex of each cycle neighbors vertices of
// the other — the topology of the paper's Figure 3. The king graph has no
// induced C5, but induced C7s exist; this pair lives in an 8x6 grid.
func twoC7Support() [][2]int {
	base := [][2]int{{3, 3}, {2, 2}, {1, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}}
	cells := append([][2]int{}, base...)
	for _, c := range base {
		cells = append(cells, [2]int{7 - c[0], c[1] + 1}) // mirrored, shifted copy
	}
	return cells
}
