package exact

import (
	"stencilivc/internal/core"
	"stencilivc/internal/order"
)

// Result reports the outcome of an exact optimization attempt.
type Result struct {
	// Coloring is the best valid coloring found (always valid).
	Coloring core.Coloring
	// MaxColor is Coloring's maxcolor, an upper bound on the optimum.
	MaxColor int64
	// LowerBound is the best proven lower bound on the optimum.
	LowerBound int64
	// Optimal reports MaxColor == optimum, proven.
	Optimal bool
	// NodesUsed is the number of decision-search nodes expended.
	NodesUsed int
}

// OptimizeOptions tunes Optimize.
type OptimizeOptions struct {
	// LowerBound is a known valid lower bound (e.g. from package bounds);
	// 0 is always safe.
	LowerBound int64
	// NodeBudget caps the total number of search nodes across all
	// decision queries; <= 0 selects a default.
	NodeBudget int
	// MaxDomainCells is forwarded to the decision procedure.
	MaxDomainCells int
}

// Optimize computes the minimum maxcolor of g, substituting for the
// paper's MILP solver. It seeds an upper bound with a weight-descending
// greedy pass, then binary-searches the smallest feasible K in
// [LowerBound, UB] with the CP decision procedure, all queries drawing on
// one shared node budget. When the budget runs out, the best coloring
// found so far is returned with Optimal=false and the tightest proven
// LowerBound — mirroring how the paper reports MILP-unsolved instances.
func Optimize(g core.Graph, opts OptimizeOptions) Result {
	if opts.NodeBudget <= 0 {
		opts.NodeBudget = defaultNodeBudget
	}
	ubColoring, err := core.GreedyColor(g, order.ByWeightDesc(g))
	if err != nil {
		panic("exact: weight order rejected: " + err.Error())
	}
	res := Result{
		Coloring:   ubColoring,
		MaxColor:   ubColoring.MaxColor(g),
		LowerBound: max(opts.LowerBound, 0),
	}
	lo, hi := res.LowerBound, res.MaxColor // optimum lies in [lo, hi]
	budget := opts.NodeBudget
	for lo < hi && budget > 0 {
		mid := lo + (hi-lo)/2
		verdict, witness := decideBudgeted(g, mid, &budget, opts.MaxDomainCells)
		res.NodesUsed = opts.NodeBudget - budget
		switch verdict {
		case Feasible:
			res.Coloring = witness
			res.MaxColor = witness.MaxColor(g)
			hi = res.MaxColor // witness may beat the query point mid
		case Infeasible:
			lo = mid + 1
			res.LowerBound = max(res.LowerBound, lo)
		default: // Unknown: cannot conclude either way; stop honestly.
			return res
		}
	}
	if lo >= hi {
		res.Optimal = true
		res.LowerBound = res.MaxColor
	}
	return res
}
