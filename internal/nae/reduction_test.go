package nae

import (
	"math/rand"
	"testing"

	"stencilivc/internal/exact"
)

func mustBuild(t *testing.T, in Instance) *Layout {
	t.Helper()
	l, err := Build(in)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return l
}

func adjacent(l *Layout, a, b int) bool {
	for _, u := range l.Grid.Neighbors(a, nil) {
		if u == b {
			return true
		}
	}
	return false
}

func TestBuildRejectsInvalidInstance(t *testing.T) {
	if _, err := Build(Instance{NumVars: 2, Clauses: [][3]int{{0, 1, 2}}}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestBuildDimensions(t *testing.T) {
	in := Instance{NumVars: 3, Clauses: [][3]int{{0, 1, 2}, {0, 1, 2}}}
	l := mustBuild(t, in)
	if l.Grid.X() != 12 || l.Grid.Y() != 9 || l.Grid.Z() != 8 {
		t.Fatalf("grid %dx%dx%d, want 12x9x8", l.Grid.X(), l.Grid.Y(), l.Grid.Z())
	}
	if l.U != 9 {
		t.Errorf("U = %d, want 9", l.U)
	}
}

// TestTubesAreInducedAlternatingChains: consecutive tube cells are
// adjacent, non-consecutive ones are not, and all carry weight 7.
func TestTubesAreInducedAlternatingChains(t *testing.T) {
	in := Instance{NumVars: 4, Clauses: [][3]int{{0, 1, 2}, {1, 2, 3}}}
	l := mustBuild(t, in)
	for i, tube := range l.TubeCells {
		for z, id := range tube {
			if l.Grid.Weight(id) != 7 {
				t.Fatalf("tube %d layer %d weight %d", i, z, l.Grid.Weight(id))
			}
			if z > 0 && !adjacent(l, tube[z-1], id) {
				t.Fatalf("tube %d break between layers %d and %d", i, z-1, z)
			}
			for z2 := 0; z2 < z-1; z2++ {
				if adjacent(l, tube[z2], id) {
					t.Fatalf("tube %d chord between layers %d and %d", i, z2, z)
				}
			}
		}
	}
	// Tubes of different variables never touch.
	for i := range l.TubeCells {
		for i2 := i + 1; i2 < len(l.TubeCells); i2++ {
			for _, a := range l.TubeCells[i] {
				for _, b := range l.TubeCells[i2] {
					if adjacent(l, a, b) {
						t.Fatalf("tubes %d and %d touch", i, i2)
					}
				}
			}
		}
	}
}

// TestWiresAreInducedChains: each wire is an induced path of 7s whose
// first cell touches exactly its own tube's clause-layer cell, and wires
// of the same clause never touch each other.
func TestWiresAreInducedChains(t *testing.T) {
	in := Instance{NumVars: 4, Clauses: [][3]int{{0, 1, 3}, {0, 2, 3}}}
	l := mustBuild(t, in)
	for j, cl := range in.Clauses {
		z := l.ClauseLayer(j)
		for w := 0; w < 3; w++ {
			chain := l.WireChains[j][w]
			tubeCell := l.TubeCells[cl[w]][z]
			if !adjacent(l, tubeCell, chain[0]) {
				t.Fatalf("clause %d wire %d not connected to its tube", j, w)
			}
			for t2 := 1; t2 < len(chain); t2++ {
				if !adjacent(l, chain[t2-1], chain[t2]) {
					t.Fatalf("clause %d wire %d break at %d", j, w, t2)
				}
			}
			for a := 0; a < len(chain); a++ {
				if l.Grid.Weight(chain[a]) != 7 {
					t.Fatalf("clause %d wire %d cell %d weight %d", j, w, a, l.Grid.Weight(chain[a]))
				}
				for b := a + 2; b < len(chain); b++ {
					if adjacent(l, chain[a], chain[b]) {
						t.Fatalf("clause %d wire %d chord %d-%d", j, w, a, b)
					}
				}
				// Wire cells beyond the first must not touch the tube
				// (that would create a polarity shortcut).
				if a >= 2 && adjacent(l, tubeCell, chain[a]) {
					t.Fatalf("clause %d wire %d cell %d touches tube", j, w, a)
				}
			}
			// No contact with tubes of other variables.
			for i := range l.TubeCells {
				if i == cl[w] {
					continue
				}
				for _, tc := range l.TubeCells[i] {
					for _, wc := range chain {
						if adjacent(l, tc, wc) {
							t.Fatalf("clause %d wire %d touches tube %d", j, w, i)
						}
					}
				}
			}
		}
		// Wires of one clause are pairwise non-adjacent.
		for w := 0; w < 3; w++ {
			for w2 := w + 1; w2 < 3; w2++ {
				for _, a := range l.WireChains[j][w] {
					for _, b := range l.WireChains[j][w2] {
						if adjacent(l, a, b) {
							t.Fatalf("clause %d wires %d and %d touch", j, w, w2)
						}
					}
				}
			}
		}
	}
}

// TestWireParityUniformPerClause: all three wires of a clause have
// equal-length parity, the invariant the polarity argument needs.
func TestWireParityUniformPerClause(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		in := Random(rng, 3+rng.Intn(4), 1+rng.Intn(4))
		l := mustBuild(t, in)
		for j := range in.Clauses {
			p0 := len(l.WireChains[j][0]) % 2
			for w := 1; w < 3; w++ {
				if len(l.WireChains[j][w])%2 != p0 {
					t.Fatalf("clause %d wire %d parity differs (lengths %d,%d,%d)",
						j, w, len(l.WireChains[j][0]), len(l.WireChains[j][1]), len(l.WireChains[j][2]))
				}
			}
		}
	}
}

// TestClauseGadgetAdjacency: the three 3s are pairwise adjacent; each 3
// touches, among all nonzero cells, exactly its own terminal and the two
// other 3s.
func TestClauseGadgetAdjacency(t *testing.T) {
	in := Instance{NumVars: 5, Clauses: [][3]int{{0, 2, 4}, {1, 2, 3}, {0, 1, 4}}}
	l := mustBuild(t, in)
	for j := range in.Clauses {
		threes := l.Threes[j]
		for w := 0; w < 3; w++ {
			if l.Grid.Weight(threes[w]) != 3 {
				t.Fatalf("clause %d three %d has weight %d", j, w, l.Grid.Weight(threes[w]))
			}
			for w2 := w + 1; w2 < 3; w2++ {
				if !adjacent(l, threes[w], threes[w2]) {
					t.Fatalf("clause %d threes %d,%d not adjacent", j, w, w2)
				}
			}
		}
		for w := 0; w < 3; w++ {
			three := threes[w]
			term := l.Terminal(j, w)
			if !adjacent(l, three, term) {
				t.Fatalf("clause %d three %d misses its terminal", j, w)
			}
			// Enumerate every nonzero neighbor; only the terminal and the
			// two sibling 3s are allowed.
			for _, u := range l.Grid.Neighbors(three, nil) {
				if l.Grid.Weight(u) == 0 {
					continue
				}
				if u == term || u == threes[(w+1)%3] || u == threes[(w+2)%3] {
					continue
				}
				x, y, z := l.Grid.Coords(u)
				t.Fatalf("clause %d three %d touches unexpected cell (%d,%d,%d) w=%d",
					j, w, x, y, z, l.Grid.Weight(u))
			}
		}
	}
}

// TestAssignmentColoringValid: for satisfiable instances, the constructed
// coloring is valid with maxcolor <= 14 — the forward direction of the
// reduction, checked by the generic validator rather than by the
// construction's own reasoning.
func TestAssignmentColoringValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	built := 0
	for trial := 0; trial < 20 && built < 8; trial++ {
		in := Random(rng, 3+rng.Intn(3), 1+rng.Intn(4))
		w := in.Solve()
		if w == nil {
			continue
		}
		built++
		l := mustBuild(t, in)
		c, err := AssignmentColoring(l, w)
		if err != nil {
			t.Fatalf("AssignmentColoring: %v", err)
		}
		if err := c.Validate(l.Grid); err != nil {
			t.Fatalf("constructed coloring invalid: %v", err)
		}
		if mc := c.MaxColor(l.Grid); mc > K {
			t.Fatalf("constructed coloring uses %d > %d colors", mc, K)
		}
		// Decoding the constructed coloring returns a satisfying
		// assignment (not necessarily w itself).
		back := DecodeAssignment(l, c)
		if !in.Satisfied(back) {
			t.Fatalf("decoded assignment unsatisfying: %v", back)
		}
	}
	if built < 3 {
		t.Fatalf("too few satisfiable instances exercised: %d", built)
	}
}

func TestAssignmentColoringRejectsBadAssignment(t *testing.T) {
	in := Instance{NumVars: 3, Clauses: [][3]int{{0, 1, 2}}}
	l := mustBuild(t, in)
	if _, err := AssignmentColoring(l, []bool{true, true, true}); err == nil {
		t.Error("unsatisfying assignment accepted")
	}
}

// TestReductionEquivalence is the end-to-end theorem check: the CP
// decision procedure on the constructed 27-pt stencil at K=14 agrees with
// brute-forced NAE-3SAT satisfiability, and feasible witnesses decode to
// satisfying assignments.
func TestReductionEquivalence(t *testing.T) {
	instances := []Instance{
		{NumVars: 3, Clauses: [][3]int{{0, 1, 2}}},
		{NumVars: 4, Clauses: [][3]int{{0, 1, 2}, {1, 2, 3}}},
		{NumVars: 4, Clauses: [][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}},
		{NumVars: 3, Clauses: [][3]int{{0, 1, 2}, {0, 1, 2}}},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		instances = append(instances, Random(rng, 3+rng.Intn(2), 1+rng.Intn(3)))
	}
	for idx, in := range instances {
		l := mustBuild(t, in)
		want := in.Solve() != nil
		verdict, witness := exact.Decide(l.Grid, K, exact.DecideOptions{
			NodeBudget: 5_000_000,
		})
		if verdict == exact.Unknown {
			t.Fatalf("instance %d: decision budget exhausted", idx)
		}
		got := verdict == exact.Feasible
		if got != want {
			t.Fatalf("instance %d (%+v): colorable=%v, NAE satisfiable=%v", idx, in, got, want)
		}
		if got {
			if err := witness.Validate(l.Grid); err != nil {
				t.Fatalf("instance %d: witness invalid: %v", idx, err)
			}
			back := DecodeAssignment(l, witness)
			if !in.Satisfied(back) {
				t.Fatalf("instance %d: decoded witness %v unsatisfying", idx, back)
			}
		}
	}
}
