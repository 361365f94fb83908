package heuristics

import (
	"math"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

func init() {
	MustRegister(Descriptor{
		Name: GKF, Dims: DimBoth, Paper: true, Order: 4,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			return greedyBlocksFirst(s, s.CliqueBlocks(), opts)
		},
	})
	MustRegister(Descriptor{
		Name: SGK, Dims: DimBoth, Paper: true, Order: 5,
		Fn: func(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, error) {
			// SGK's block-internal search differs per dimension: in 2D all
			// <= 4! permutations are tried, in 3D the paper's weight-sorted
			// shortcut replaces the infeasible 8! search.
			if s.Dims() == 2 {
				return smartBlocksPermuted(s, s.CliqueBlocks(), opts)
			}
			return smartBlocksSorted(s, s.CliqueBlocks(), opts)
		},
	})
}

// ctxEveryBlocks is how many clique blocks the block-driven heuristics
// process between cancellation polls; a block holds at most 8 vertices,
// so this is finer-grained than core.CtxCheckInterval placements.
const ctxEveryBlocks = 256

// sweepBlocks is the skeleton the block heuristics share: visit the
// cover's blocks in non-increasing total weight (ties by anchor), polling
// for cancellation, and hand each block's anchor to visit; then color any
// vertex no block reached.
func sweepBlocks(g core.Graph, cv grid.Cover, opts *core.SolveOptions,
	visit func(c core.Coloring, s *core.FitScratch, anchor int)) (core.Coloring, error) {
	c := core.NewColoring(g.Len())
	var s core.FitScratch
	s.Bind(g)
	defer s.Flush(opts, 0)
	for bi, b := range cv.ByWeightDesc() {
		if bi%ctxEveryBlocks == 0 {
			if err := opts.Err(); err != nil {
				return core.Coloring{}, err
			}
		}
		visit(c, &s, cv.Anchor[b])
	}
	// Blocks cover every vertex on all supported grids, but guard anyway:
	// any straggler is colored greedily.
	if err := colorStragglers(g, c, &s, opts); err != nil {
		return core.Coloring{}, err
	}
	return c, nil
}

// greedyBlocksFirst is GKF's engine: visit blocks in non-increasing total
// weight, greedily coloring each block's still-uncolored vertices in their
// stored (anchor) order. Vertices already colored through an earlier block
// are left untouched (Section V-A).
func greedyBlocksFirst(g core.Graph, cv grid.Cover, opts *core.SolveOptions) (core.Coloring, error) {
	return sweepBlocks(g, cv, opts, func(c core.Coloring, s *core.FitScratch, a int) {
		for _, off := range cv.Offsets {
			if v := a + off; !c.Colored(v) {
				c.Start[v] = s.Place(c, v, s.Neighbors(v))
			}
		}
	})
}

// colorStragglers greedily colors any vertex the block sweep missed.
func colorStragglers(g core.Graph, c core.Coloring, s *core.FitScratch, opts *core.SolveOptions) error {
	for v := 0; v < g.Len(); v++ {
		if v%core.CtxCheckInterval == 0 {
			if err := opts.Err(); err != nil {
				return err
			}
		}
		if !c.Colored(v) {
			c.Start[v] = s.Place(c, v, s.Neighbors(v))
		}
	}
	return nil
}

// LargestCliqueFirst2D is GKF on a 9-pt stencil.
func LargestCliqueFirst2D(g *grid.Grid2D) core.Coloring {
	return mustBlocks(greedyBlocksFirst(g, g.CliqueBlocks(), nil))
}

// LargestCliqueFirst3D is GKF on a 27-pt stencil.
func LargestCliqueFirst3D(g *grid.Grid3D) core.Coloring {
	return mustBlocks(greedyBlocksFirst(g, g.CliqueBlocks(), nil))
}

// mustBlocks unwraps a block-engine result run without options; with no
// context to cancel, an error is a programming error.
func mustBlocks(c core.Coloring, err error) core.Coloring {
	if err != nil {
		panic("heuristics: block engine failed without a context: " + err.Error())
	}
	return c
}

// smartBlocksPermuted is SGK's 2D engine and the full-permutation 3D
// ablation: like GKF, but for each block every permutation of its
// uncolored vertices (at most 4! = 24 for a K4, 8! for a K8) is tried and
// the one minimizing the block's local maxcolor is committed
// (Section V-A).
func smartBlocksPermuted(g core.Graph, cv grid.Cover, opts *core.SolveOptions) (core.Coloring, error) {
	ps := permSearch{g: g}
	return sweepBlocks(g, cv, opts, func(c core.Coloring, s *core.FitScratch, a int) {
		ps.c, ps.s = c, s
		ps.commitBest(cv.Offsets, a)
	})
}

// SmartLargestCliqueFirst2D is SGK in 2D.
func SmartLargestCliqueFirst2D(g *grid.Grid2D) core.Coloring {
	return mustBlocks(smartBlocksPermuted(g, g.CliqueBlocks(), nil))
}

// permSearch is SGK's block-internal permutation search. One value
// serves every block of a solve, so the search allocates nothing per
// block: members holds the current block, uncolored its still-uncolored
// members in stored order, perm the order under trial, and best the
// starts (aligned with uncolored) of the best order found so far.
type permSearch struct {
	g core.Graph
	c core.Coloring
	s *core.FitScratch

	members, uncolored, perm []int
	best                     []int64
	bestLocal                int64
}

// commitBest tries every placement order of the uncolored members of the
// block anchored at a and commits the starts of the order minimizing the
// block's maximum interval end; ties prefer the first order generated,
// which keeps the algorithm deterministic.
func (ps *permSearch) commitBest(offsets []int, a int) {
	ps.members, ps.uncolored = ps.members[:0], ps.uncolored[:0]
	for _, off := range offsets {
		v := a + off
		ps.members = append(ps.members, v)
		if !ps.c.Colored(v) {
			ps.uncolored = append(ps.uncolored, v)
		}
	}
	if len(ps.uncolored) == 0 {
		return
	}
	ps.perm = append(ps.perm[:0], ps.uncolored...)
	ps.best = append(ps.best[:0], make([]int64, len(ps.uncolored))...)
	ps.bestLocal = math.MaxInt64
	ps.try(0)
	for i, v := range ps.uncolored {
		ps.c.Start[v] = ps.best[i]
	}
}

// try places perm[k:] in every order, recursively, restoring perm and
// the coloring on the way back.
func (ps *permSearch) try(k int) {
	g, c := ps.g, ps.c
	if k == len(ps.perm) {
		// Evaluate the block-local maxcolor under this placement.
		var local int64
		for _, v := range ps.members {
			if c.Colored(v) {
				local = max(local, c.Start[v]+g.Weight(v))
			}
		}
		if local < ps.bestLocal {
			ps.bestLocal = local
			for i, v := range ps.uncolored {
				ps.best[i] = c.Start[v]
			}
		}
		return
	}
	perm := ps.perm
	for i := k; i < len(perm); i++ {
		perm[k], perm[i] = perm[i], perm[k]
		v := perm[k]
		c.Start[v] = ps.s.Place(c, v, ps.s.Neighbors(v))
		ps.try(k + 1)
		c.Start[v] = core.Unset
		perm[k], perm[i] = perm[i], perm[k]
	}
}

// smartBlocksSorted is SGK's 3D engine. Trying all 8! = 40320 orders per
// K8 was too slow even for the paper; as the authors did, each block's
// uncolored vertices are instead colored in non-increasing weight order.
func smartBlocksSorted(g core.Graph, cv grid.Cover, opts *core.SolveOptions) (core.Coloring, error) {
	var uncolored []int
	return sweepBlocks(g, cv, opts, func(c core.Coloring, s *core.FitScratch, a int) {
		uncolored = uncolored[:0]
		for _, off := range cv.Offsets {
			if v := a + off; !c.Colored(v) {
				uncolored = append(uncolored, v)
			}
		}
		// Non-increasing weight, ties by id: deterministic.
		for i := 1; i < len(uncolored); i++ {
			for j := i; j > 0; j-- {
				u, v := uncolored[j-1], uncolored[j]
				if g.Weight(v) > g.Weight(u) || (g.Weight(v) == g.Weight(u) && v < u) {
					uncolored[j-1], uncolored[j] = v, u
				} else {
					break
				}
			}
		}
		for _, v := range uncolored {
			c.Start[v] = s.Place(c, v, s.Neighbors(v))
		}
	})
}

// SmartLargestCliqueFirst3D is SGK in 3D (weight-sorted block order).
func SmartLargestCliqueFirst3D(g *grid.Grid3D) core.Coloring {
	return mustBlocks(smartBlocksSorted(g, g.CliqueBlocks(), nil))
}
