// NP-completeness: walk through the Section IV reduction from NAE-3SAT
// to 27-pt stencil interval coloring, in both directions.
//
// Run with:
//
//	go run ./examples/npcompleteness
package main

import (
	"fmt"
	"log"

	"stencilivc"
)

func main() {
	// A small NAE-3SAT formula over four variables.
	inst := stencilivc.NAEInstance{
		NumVars: 4,
		Clauses: [][3]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}},
	}
	fmt.Printf("NAE-3SAT: %d variables, %d clauses %v\n", inst.NumVars, len(inst.Clauses), inst.Clauses)

	// Build the 27-pt stencil whose 14-colorability encodes the formula.
	layout, err := stencilivc.BuildNAEReduction(inst)
	if err != nil {
		log.Fatal(err)
	}
	g := layout.Grid
	fmt.Printf("reduction: %dx%dx%d stencil (%d cells; weights 0, 3, and 7)\n",
		g.X(), g.Y(), g.Z(), g.Len())

	// Direction 1: a satisfying assignment yields a 14-coloring.
	assignment := inst.Solve()
	if assignment == nil {
		log.Fatal("instance unexpectedly unsatisfiable")
	}
	c, err := stencilivc.EncodeNAEColoring(layout, assignment)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assignment %v -> valid coloring with maxcolor %d (budget %d)\n",
		assignment, c.MaxColor(g), stencilivc.ReductionK)

	// Direction 2: deciding 14-colorability recovers satisfiability, and
	// any witness decodes to a satisfying assignment.
	verdict, witness := stencilivc.Decide(g, stencilivc.ReductionK, 2_000_000)
	fmt.Printf("CP decision at K=%d: %v\n", stencilivc.ReductionK, verdict)
	if verdict == stencilivc.Feasible {
		decoded := stencilivc.DecodeNAEColoring(layout, witness)
		fmt.Printf("decoded assignment: %v (satisfies: %v)\n", decoded, inst.Satisfied(decoded))
	}

	// And one color fewer is impossible wherever a 7 touches a 7.
	verdict13, _ := stencilivc.Decide(g, stencilivc.ReductionK-1, 2_000_000)
	fmt.Printf("CP decision at K=%d: %v (two adjacent weight-7 tubes need 14)\n",
		stencilivc.ReductionK-1, verdict13)
}
