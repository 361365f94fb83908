package exact

import (
	"stencilivc/internal/core"
	"stencilivc/internal/order"
)

// SolveByOrder is an exact branch-and-bound over vertex orders with greedy
// placement, independent of the CP solver (the two cross-check each other
// in tests).
//
// Exactness rests on a compression argument. Take any optimal coloring
// and repeatedly move each vertex to its lowest feasible start given the
// others; the total of all starts strictly decreases, so this terminates
// in a "compressed" optimal coloring where every vertex sits at its lowest
// feasible start. Replay its vertices in nondecreasing start order through
// the greedy engine: when vertex v is placed, only neighbors with earlier
// starts are present, so greedy's choice is <= v's compressed start, and
// the result is valid with maxcolor no larger than the optimum. Hence some
// vertex order makes plain greedy optimal, and exhausting orders (with
// pruning) is exact.
//
// The search prunes a branch as soon as its partial maxcolor reaches the
// incumbent, and stops early when the incumbent meets lowerBound. With a
// node budget of <= 0 a default is used. Returns the best coloring found
// and whether optimality was proven (budget not exhausted, or incumbent
// == lowerBound).
func SolveByOrder(g core.Graph, lowerBound int64, nodeBudget int) Result {
	if nodeBudget <= 0 {
		nodeBudget = defaultNodeBudget
	}
	n := g.Len()
	// Incumbent: greedy in weight-descending order.
	inc, err := core.GreedyColor(g, order.ByWeightDesc(g))
	if err != nil {
		panic("exact: seed permutation rejected: " + err.Error())
	}
	s := &orderSearch{
		g:       g,
		best:    inc.MaxColor(g),
		bestCol: inc,
		lb:      max(lowerBound, 0),
		budget:  nodeBudget,
		cur:     core.NewColoring(n),
		used:    make([]bool, n),
	}
	s.scratch.Bind(g)
	if s.best > s.lb {
		s.dfs(0, 0)
	}
	return Result{
		Coloring:   s.bestCol,
		MaxColor:   s.best,
		LowerBound: s.lb,
		Optimal:    s.budget > 0 || s.best == s.lb,
		NodesUsed:  nodeBudget - s.budget,
	}
}

type orderSearch struct {
	g       core.Graph
	best    int64
	bestCol core.Coloring
	lb      int64
	budget  int
	cur     core.Coloring
	used    []bool
	scratch core.FitScratch
}

func (s *orderSearch) dfs(placed int, curMax int64) {
	if s.budget <= 0 || s.best == s.lb {
		return
	}
	s.budget--
	if placed == s.g.Len() {
		if curMax < s.best {
			s.best = curMax
			s.bestCol = s.cur.Clone()
		}
		return
	}
	for v := 0; v < s.g.Len(); v++ {
		if s.used[v] {
			continue
		}
		start := s.scratch.Place(s.cur, v)
		end := start + s.g.Weight(v)
		if max(curMax, end) >= s.best {
			continue // cannot improve on the incumbent
		}
		s.used[v] = true
		s.cur.Start[v] = start
		s.dfs(placed+1, max(curMax, end))
		s.cur.Start[v] = core.Unset
		s.used[v] = false
		if s.budget <= 0 || s.best == s.lb {
			return
		}
	}
}
