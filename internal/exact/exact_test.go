package exact

import (
	"math/rand"
	"testing"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// randomGraph returns a random graph with n vertices, edge probability
// p percent, and weights in [0, maxW].
func randomGraph(rng *rand.Rand, n, pPct int, maxW int64) *core.CSRGraph {
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = rng.Int63n(maxW + 1)
	}
	var edges []core.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(100) < pPct {
				edges = append(edges, core.Edge{U: i, V: j})
			}
		}
	}
	return core.MustCSRGraph(weights, edges)
}

func TestDecideTrivial(t *testing.T) {
	g := core.Chain([]int64{3, 4})
	if v, _ := Decide(g, 6, DecideOptions{}); v != Infeasible {
		t.Errorf("K=6 verdict = %v, want infeasible", v)
	}
	v, c := Decide(g, 7, DecideOptions{})
	if v != Feasible {
		t.Fatalf("K=7 verdict = %v, want feasible", v)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c.MaxColor(g) > 7 {
		t.Errorf("witness maxcolor = %d > 7", c.MaxColor(g))
	}
	if v, _ := Decide(g, -1, DecideOptions{}); v != Infeasible {
		t.Error("negative K not infeasible")
	}
}

func TestDecideZeroWeights(t *testing.T) {
	g := core.Clique([]int64{0, 0, 0})
	v, c := Decide(g, 0, DecideOptions{})
	if v != Feasible {
		t.Fatalf("all-zero clique verdict = %v", v)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestDecideSingleVertex(t *testing.T) {
	g := core.Chain([]int64{5})
	if v, _ := Decide(g, 4, DecideOptions{}); v != Infeasible {
		t.Error("w=5 fits in K=4?")
	}
	if v, _ := Decide(g, 5, DecideOptions{}); v != Feasible {
		t.Error("w=5 does not fit in K=5?")
	}
}

func TestDecideDomainCap(t *testing.T) {
	g := core.Chain([]int64{1, 1, 1})
	if v, _ := Decide(g, 1_000_000, DecideOptions{MaxDomainCells: 10}); v != Unknown {
		t.Error("domain cap not honored")
	}
}

func TestDecideBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 14, 60, 6)
	lb := bounds.MaxPair(g)
	// A budget of 1 node cannot decide a nontrivial instance at its LB
	// unless propagation alone settles it; accept Unknown or a real answer,
	// but never a wrong one.
	v, c := Decide(g, lb, DecideOptions{NodeBudget: 1})
	if v == Feasible {
		if err := c.Validate(g); err != nil {
			t.Fatalf("budget-1 feasible witness invalid: %v", err)
		}
	}
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 2+rng.Intn(6), 50, 5)
		want, err := BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := Optimize(g, OptimizeOptions{LowerBound: bounds.MaxPair(g)})
		if !got.Optimal {
			t.Fatalf("trial %d: Optimize not optimal", trial)
		}
		if got.MaxColor != want.MaxColor {
			t.Fatalf("trial %d: Optimize = %d, BruteForce = %d", trial, got.MaxColor, want.MaxColor)
		}
		if err := got.Coloring.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveByOrderMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 2+rng.Intn(5), 60, 4)
		want, err := BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := SolveByOrder(g, 0, 0)
		if !got.Optimal {
			t.Fatalf("trial %d: SolveByOrder not optimal", trial)
		}
		if got.MaxColor != want.MaxColor {
			t.Fatalf("trial %d: SolveByOrder = %d, BruteForce = %d", trial, got.MaxColor, want.MaxColor)
		}
		if err := got.Coloring.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExactSolversOnSmallStencil(t *testing.T) {
	// 3x3 stencil with deterministic weights; all three exact methods must
	// agree, and the result must be >= the K4 bound.
	weights := []int64{2, 1, 3, 0, 4, 1, 2, 2, 1}
	g, err := grid.FromWeights2D(3, 3, weights)
	if err != nil {
		t.Fatal(err)
	}
	lb := bounds.MaxK4(g)

	brute, err := BruteForce(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(g, OptimizeOptions{LowerBound: lb})
	ord := SolveByOrder(g, lb, 0)
	if !opt.Optimal || !ord.Optimal {
		t.Fatalf("optimality flags: cp=%v order=%v", opt.Optimal, ord.Optimal)
	}
	if opt.MaxColor != brute.MaxColor || ord.MaxColor != brute.MaxColor {
		t.Fatalf("disagreement: brute=%d cp=%d order=%d", brute.MaxColor, opt.MaxColor, ord.MaxColor)
	}
	if opt.MaxColor < lb {
		t.Fatalf("optimum %d below K4 bound %d", opt.MaxColor, lb)
	}
}

func TestOptimizeCliqueIsSumOfWeights(t *testing.T) {
	weights := []int64{3, 1, 4, 1, 5}
	g := core.Clique(weights)
	res := Optimize(g, OptimizeOptions{})
	if !res.Optimal || res.MaxColor != 14 {
		t.Fatalf("clique optimum = %d (optimal=%v), want 14", res.MaxColor, res.Optimal)
	}
}

func TestOptimizeBipartiteIsMaxPair(t *testing.T) {
	g := core.CompleteBipartite([]int64{4, 2}, []int64{3, 5})
	res := Optimize(g, OptimizeOptions{})
	if !res.Optimal || res.MaxColor != 9 {
		t.Fatalf("bipartite optimum = %d (optimal=%v), want 9", res.MaxColor, res.Optimal)
	}
}

func TestBruteForceRefusesHugeInstances(t *testing.T) {
	weights := make([]int64, 40)
	for i := range weights {
		weights[i] = 50
	}
	g := core.Clique(weights)
	if _, err := BruteForce(g, 1000); err == nil {
		t.Error("BruteForce accepted a huge instance")
	}
}

func TestOptimizeBudgetHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 20, 60, 8)
	res := Optimize(g, OptimizeOptions{NodeBudget: 2})
	if err := res.Coloring.Validate(g); err != nil {
		t.Fatalf("budgeted result invalid: %v", err)
	}
	if res.MaxColor < res.LowerBound {
		t.Fatalf("upper bound %d below lower bound %d", res.MaxColor, res.LowerBound)
	}
}

func TestVerdictString(t *testing.T) {
	if Feasible.String() != "feasible" || Infeasible.String() != "infeasible" || Unknown.String() != "unknown" {
		t.Error("Verdict strings wrong")
	}
}
