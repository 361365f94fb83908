// Quickstart: color a small weighted 9-pt stencil and inspect the result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"stencilivc"
)

func main() {
	// The introduction's motivating example: a 5x4 grid of spatial regions
	// whose weights are the number of objects each region holds (Figure 1).
	weights := []int64{
		1, 2, 1, 0, 0,
		3, 5, 2, 1, 0,
		2, 4, 3, 2, 1,
		0, 1, 1, 2, 1,
	}
	g, err := stencilivc.FromWeights2D(5, 4, weights)
	if err != nil {
		log.Fatal(err)
	}

	lb := stencilivc.LowerBound2D(g)
	fmt.Printf("instance: %d regions, total work %d, lower bound %d colors\n\n",
		g.Len(), total(weights), lb)

	// Compare the paper's seven heuristics.
	for _, alg := range stencilivc.Algorithms() {
		c, err := stencilivc.Solve2D(alg, g)
		if err != nil {
			log.Fatal(err)
		}
		mark := ""
		if c.MaxColor(g) == lb {
			mark = "  <- provably optimal (matches the K4 bound)"
		}
		fmt.Printf("%-4s uses %2d colors%s\n", alg, c.MaxColor(g), mark)
	}

	// Look at the best coloring cell by cell.
	c, winner, err := stencilivc.Best2D(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest coloring (%s): each region's color interval\n", winner)
	for j := 0; j < g.Y(); j++ {
		for i := 0; i < g.X(); i++ {
			v := g.ID(i, j)
			fmt.Printf("[%2d,%2d) ", c.Start[v], c.Start[v]+g.Weight(v))
		}
		fmt.Println()
	}

	// A coloring is a schedule: regions whose intervals are disjoint in
	// color may run concurrently. Simulate on 4 processors.
	dag, err := stencilivc.TaskDAG(g, c)
	if err != nil {
		log.Fatal(err)
	}
	s, err := stencilivc.Simulate(dag, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\non 4 processors: makespan %d (sequential %d, critical path %d)\n",
		s.Makespan, dag.TotalWork(), dag.CriticalPath())
}

func total(w []int64) int64 {
	var s int64
	for _, v := range w {
		s += v
	}
	return s
}
