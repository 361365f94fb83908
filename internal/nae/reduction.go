package nae

import (
	"fmt"

	"stencilivc/internal/grid"
)

// K is the color budget of the reduction: the constructed 27-pt stencil is
// colorable with at most K colors iff the NAE-3SAT instance is positive
// (Section IV builds the decision instance with maxcolor = 14).
const K = 14

// Weights used by the construction.
const (
	wireWeight   = 7 // every tube/wire cell; two adjacent 7s must split [0,14)
	clauseWeight = 3 // the three pairwise-adjacent clause cells
)

// Layout is the constructed 3DS-IVC instance along with the positions of
// every gadget, so colorings can be encoded from assignments and decoded
// back.
//
// Geometry (0-based coordinates), re-derived from the invariants stated in
// Section IV (the paper's right-hand-side table is garbled in the
// available text; DESIGN.md documents the re-derivation):
//
//   - Grid X×Y×Z with X = 2n+6, Y = 9, Z = 4m.
//   - Variable i owns column x_i = 2i+1. Its *tube* zig-zags along z:
//     weight 7 at (x_i, 0, z) for even z and (x_i, 1, z) for odd z, an
//     induced path whose colors must alternate between [0,7) and [7,14).
//   - Clause j owns layer z_j = 4j+1 (always odd, so tubes surface at y = 1 there) and
//     the layer above, z_j+1, hosts its three weight-3 cells
//     A=(u,6), B=(u+1,6), C=(u,7) with u = 2n+3 — pairwise adjacent.
//   - Three *wires* (induced paths of 7s, diagonal corners so that no two
//     non-consecutive cells touch) connect the clause's tubes to the
//     gadget; wire w ends at a terminal adjacent to exactly one of the
//     three 3s. All three wire lengths have equal parity, so the three
//     terminal polarities equal the three variable polarities up to one
//     shared flip.
//
// With maxcolor = 14 every 7 adjacent to another 7 is forced into [0,7) or
// [7,14) ("polarity"). If a clause's three terminals share one polarity,
// its three 3s are confined to the 7 remaining colors while needing 9 —
// infeasible; with mixed polarities the 3s fit. Hence colorable in 14 iff
// the instance is NAE-satisfiable.
type Layout struct {
	Inst Instance
	Grid *grid.Grid3D
	// U is the gadget anchor column 2n+3.
	U int
	// TubeCells[i][z] is the vertex id of variable i's tube cell in layer z.
	TubeCells [][]int
	// WireChains[j][w] lists wire w of clause j in chain order, from the
	// cell adjacent to the tube up to the terminal.
	WireChains [][3][]int
	// Threes[j][w] is the weight-3 vertex touched by wire w's terminal.
	Threes [][3]int
}

// ClauseLayer returns the z coordinate of clause j's wire layer.
func (l *Layout) ClauseLayer(j int) int { return 4*j + 1 }

// TubeColumn returns the x coordinate of variable i's tube.
func TubeColumn(i int) int { return 2*i + 1 }

// Build constructs the 3DS-IVC instance of the reduction.
func Build(inst Instance) (*Layout, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n, m := inst.NumVars, len(inst.Clauses)
	X, Y, Z := 2*n+6, 9, 4*m
	g, err := grid.NewGrid3D(X, Y, Z)
	if err != nil {
		return nil, fmt.Errorf("nae: grid allocation: %w", err)
	}
	l := &Layout{Inst: inst, Grid: g, U: 2*n + 3}

	// set places weight w at (x,y,z), failing on collisions: overlapping
	// gadgets would silently break the polarity argument.
	set := func(x, y, z int, w int64) (int, error) {
		if x < 0 || x >= X || y < 0 || y >= Y || z < 0 || z >= Z {
			return 0, fmt.Errorf("nae: cell (%d,%d,%d) outside %dx%dx%d", x, y, z, X, Y, Z)
		}
		if g.At(x, y, z) != 0 {
			return 0, fmt.Errorf("nae: gadget collision at (%d,%d,%d)", x, y, z)
		}
		g.Set(x, y, z, w)
		return g.ID(x, y, z), nil
	}

	// Tubes.
	l.TubeCells = make([][]int, n)
	for i := 0; i < n; i++ {
		xi := TubeColumn(i)
		l.TubeCells[i] = make([]int, Z)
		for z := 0; z < Z; z++ {
			y := z % 2 // 0 on even layers, 1 on odd (clause) layers
			id, err := set(xi, y, z, wireWeight)
			if err != nil {
				return nil, err
			}
			l.TubeCells[i][z] = id
		}
	}

	u := l.U
	l.WireChains = make([][3][]int, m)
	l.Threes = make([][3]int, m)
	for j, cl := range inst.Clauses {
		z := l.ClauseLayer(j)

		// Wire 0 (smallest variable): climb to y=7, run along y=8, end at
		// (u-1, 8); terminal touches the 3 at C=(u,7,z+1).
		xa := TubeColumn(cl[0])
		var chain0 []int
		for y := 2; y <= 7; y++ {
			id, err := set(xa, y, z, wireWeight)
			if err != nil {
				return nil, err
			}
			chain0 = append(chain0, id)
		}
		for x := xa + 1; x <= u-1; x++ {
			id, err := set(x, 8, z, wireWeight)
			if err != nil {
				return nil, err
			}
			chain0 = append(chain0, id)
		}

		// Wire 1: climb to y=5, diagonal to (x_b+1, 6), run along y=6 to
		// u-2, diagonal terminal at (u-1, 5); touches A=(u,6,z+1).
		xb := TubeColumn(cl[1])
		var chain1 []int
		for y := 2; y <= 5; y++ {
			id, err := set(xb, y, z, wireWeight)
			if err != nil {
				return nil, err
			}
			chain1 = append(chain1, id)
		}
		for x := xb + 1; x <= u-2; x++ {
			id, err := set(x, 6, z, wireWeight)
			if err != nil {
				return nil, err
			}
			chain1 = append(chain1, id)
		}
		id1, err := set(u-1, 5, z, wireWeight)
		if err != nil {
			return nil, err
		}
		chain1 = append(chain1, id1)

		// Wire 2 (largest variable): single cell at y=2, diagonal onto the
		// y=3 row, run to (u, 3), then diagonals (u+1,4) and the terminal
		// (u+2, 5); touches B=(u+1,6,z+1).
		xc := TubeColumn(cl[2])
		var chain2 []int
		id2, err := set(xc, 2, z, wireWeight)
		if err != nil {
			return nil, err
		}
		chain2 = append(chain2, id2)
		for x := xc + 1; x <= u; x++ {
			id, err := set(x, 3, z, wireWeight)
			if err != nil {
				return nil, err
			}
			chain2 = append(chain2, id)
		}
		for _, cell := range [][2]int{{u + 1, 4}, {u + 2, 5}} {
			id, err := set(cell[0], cell[1], z, wireWeight)
			if err != nil {
				return nil, err
			}
			chain2 = append(chain2, id)
		}

		l.WireChains[j] = [3][]int{chain0, chain1, chain2}

		// The three 3s, in the layer above the wires. Wire 0's terminal
		// touches C, wire 1's touches A, wire 2's touches B.
		idA, err := set(u, 6, z+1, clauseWeight)
		if err != nil {
			return nil, err
		}
		idB, err := set(u+1, 6, z+1, clauseWeight)
		if err != nil {
			return nil, err
		}
		idC, err := set(u, 7, z+1, clauseWeight)
		if err != nil {
			return nil, err
		}
		l.Threes[j] = [3]int{idC, idA, idB}
	}
	return l, nil
}

// Terminal returns the terminal (last chain cell) of wire w of clause j.
func (l *Layout) Terminal(j, w int) int {
	chain := l.WireChains[j][w]
	return chain[len(chain)-1]
}
