package stencilivc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stencilivc/internal/bounds"
	"stencilivc/internal/exact"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/sched"
	"stencilivc/internal/special"
)

// This file holds the cross-package invariants of the whole system,
// exercised with testing/quick over randomized stencil instances.

func quickGrid2D(seed int64, xs, ys, ws uint8) *Grid2D {
	rng := rand.New(rand.NewSource(seed))
	g := MustGrid2D(1+int(xs%8), 1+int(ys%8))
	for v := range g.Len() {
		i, j := g.Coords(v)
		g.Set(i, j, rng.Int63n(int64(ws%30)+1))
	}
	return g
}

func quickGrid3D(seed int64, xs, ys, zs, ws uint8) *Grid3D {
	rng := rand.New(rand.NewSource(seed))
	g := MustGrid3D(1+int(xs%4), 1+int(ys%4), 1+int(zs%4))
	for v := range g.Len() {
		i, j, k := g.Coords(v)
		g.Set(i, j, k, rng.Int63n(int64(ws%30)+1))
	}
	return g
}

// Every algorithm, every random instance: valid and at or above every
// lower bound.
func TestQuickAllAlgorithmsRespectBounds2D(t *testing.T) {
	f := func(seed int64, xs, ys, ws uint8) bool {
		g := quickGrid2D(seed, xs, ys, ws)
		lb := max(bounds.MaxPair(g), bounds.MaxK4(g))
		for _, alg := range Algorithms() {
			c, err := Solve2D(alg, g)
			if err != nil || c.Validate(g) != nil || c.MaxColor(g) < lb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickAllAlgorithmsRespectBounds3D(t *testing.T) {
	f := func(seed int64, xs, ys, zs, ws uint8) bool {
		g := quickGrid3D(seed, xs, ys, zs, ws)
		lb := max(bounds.MaxPair(g), bounds.MaxK8(g))
		for _, alg := range Algorithms() {
			c, err := Solve3D(alg, g)
			if err != nil || c.Validate(g) != nil || c.MaxColor(g) < lb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The approximation contracts: BD within 2x (2D) / 4x (4D) of its own
// certified lower bound, BDP never worse than BD.
func TestQuickApproximationContracts(t *testing.T) {
	f := func(seed int64, xs, ys, ws uint8) bool {
		g := quickGrid2D(seed, xs, ys, ws)
		bd, err := heuristics.Run(heuristics.BD, g, nil)
		if err != nil || bd.Validate(g) != nil {
			return false
		}
		bdp, err := heuristics.Run(heuristics.BDP, g, nil)
		if err != nil || bdp.Validate(g) != nil {
			return false
		}
		// RC, BD's certified lower bound: the largest optimal row maxcolor.
		var rc int64
		w, x, _, _ := g.Lattice()
		starts := make([]int64, x)
		for row := 0; row < len(w); row += x {
			rc = max(rc, special.ColorChain(starts, w[row:row+x]))
		}
		return bd.MaxColor(g) <= 2*rc && bdp.MaxColor(g) <= bd.MaxColor(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Scheduling invariants: critical path <= maxcolor; makespan between
// work/p and work; DAG and wave schedules both conserve work.
func TestQuickSchedulingInvariants(t *testing.T) {
	f := func(seed int64, xs, ys, ws uint8, pRaw uint8) bool {
		g := quickGrid2D(seed, xs, ys, ws)
		p := 1 + int(pRaw%8)
		c, err := Solve2D(BDP, g)
		if err != nil {
			return false
		}
		d, err := sched.Build(g, c)
		if err != nil {
			return false
		}
		s, err := sched.Simulate(d, p)
		if err != nil {
			return false
		}
		work := d.TotalWork()
		if d.CriticalPath() > c.MaxColor(g) {
			return false
		}
		if s.Makespan < d.CriticalPath() || s.Makespan > work || int64(p)*s.Makespan < work {
			return false
		}
		waves, err := sched.SimulateWaves(g, sched.ColorClasses(g), p)
		if err != nil {
			return false
		}
		return waves >= work/int64(p) && waves <= work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Exact-solver sandwich on tiny instances: LB <= OPT <= every heuristic,
// and the CP optimizer agrees with the order B&B.
func TestQuickExactSandwich(t *testing.T) {
	f := func(seed int64, ws uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := MustGrid2D(1+rng.Intn(3), 1+rng.Intn(3))
		for v := range g.Len() {
			i, j := g.Coords(v)
			g.Set(i, j, rng.Int63n(int64(ws%6)+1))
		}
		lb := bounds.Combined2D(g, 10_000)
		cp := exact.Optimize(g, exact.OptimizeOptions{LowerBound: lb, NodeBudget: 500_000})
		ord := exact.SolveByOrder(g, lb, 500_000)
		if !cp.Optimal || !ord.Optimal || cp.MaxColor != ord.MaxColor {
			return false
		}
		if cp.MaxColor < lb {
			return false
		}
		for _, alg := range Algorithms() {
			c, err := Solve2D(alg, g)
			if err != nil || c.MaxColor(g) < cp.MaxColor {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Determinism: every algorithm is a pure function of the instance.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64, xs, ys, ws uint8) bool {
		g := quickGrid2D(seed, xs, ys, ws)
		for _, alg := range Algorithms() {
			a, err1 := Solve2D(alg, g)
			b, err2 := Solve2D(alg, g)
			if err1 != nil || err2 != nil {
				return false
			}
			for v := range a.Start {
				if a.Start[v] != b.Start[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
