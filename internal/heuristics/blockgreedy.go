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
	defer s.Flush(opts)
	for bi, b := range cv.ByWeightDesc() {
		if bi%ctxEveryBlocks == 0 {
			if err := opts.Err(); err != nil {
				return core.Coloring{}, err
			}
		}
		visit(c, &s, cv.Anchor(b))
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
				c.Start[v] = s.Place(c, v)
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
			c.Start[v] = s.Place(c, v)
		}
	}
	return nil
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
	var ps permSearch
	return sweepBlocks(g, cv, opts, func(c core.Coloring, s *core.FitScratch, a int) {
		ps.c, ps.s, ps.w = c, s, s.Weights()
		ps.commitBest(cv.Offsets, a)
	})
}

// maxBlock is the most members a clique block has: the eight of a K8.
const maxBlock = 8

// permSearch is SGK's block-internal permutation search. One value
// serves every block of a solve, so the search allocates nothing per
// block. Its arrays are indexed by member index j < m, the block's
// still-uncolored members in stored order, and perm holds the member
// indices in the order under trial.
//
// Only the uncolored members change during a block's search, so each
// one's occupancy from the rest of the coloring is gathered once, into
// occ[j], and marked once into the color map maps[j]. A trial placement
// of member j fits against a copy of maps[j] with the intervals of the
// members placed before it in the trial order ORed in (a block is a
// clique); while every color is below 64 that is one register word. A
// list that reaches past the map's 256 colors is fitted as occ[j] plus
// those intervals instead. Either way the trial tallies one placement
// against as many intervals as a full re-gather would.
type permSearch struct {
	c core.Coloring
	s *core.FitScratch
	w []int64 // the bound weight slice

	m         int
	ids, perm [maxBlock]int
	occ       [maxBlock][]core.Interval
	maps      [maxBlock]core.ColorMap
	mapped    [maxBlock]bool // maps[j] holds all of occ[j]
	// extra holds the intervals of the weighted members placed so far
	// in the trial order, start their starts by member index, and best
	// the starts of the best order found so far.
	extra       [maxBlock]core.Interval
	start, best [maxBlock]int64
	bestLocal   int64
	// occBuf and trialBuf back occ and the list a trial past the map
	// fits, so a lattice's search never grows a slice.
	occBuf   [maxBlock][core.MaxFixedDegree]core.Interval
	trialBuf [core.MaxFixedDegree + maxBlock]core.Interval
}

// commitBest tries every placement order of the uncolored members of the
// block anchored at a and commits the starts of the order minimizing the
// block's maximum interval end; ties prefer the first order generated,
// which keeps the algorithm deterministic.
func (ps *permSearch) commitBest(offsets []int, a int) {
	c, s := ps.c, ps.s
	ps.m = 0
	var fixed int64 // the block's maximum end over its colored members
	for _, off := range offsets {
		v := a + off
		if st := c.Start[v]; st != core.Unset {
			fixed = max(fixed, st+ps.w[v])
			continue
		}
		ps.ids[ps.m], ps.perm[ps.m] = v, ps.m
		ps.m++
	}
	if ps.m == 0 {
		return
	}
	for j := range ps.m {
		ps.occ[j] = s.Gather(ps.occBuf[j][:0], c, ps.ids[j])
		ps.maps[j] = core.ColorMap{}
		ps.mapped[j] = ps.maps[j].Mark(ps.occ[j])
	}
	ps.bestLocal = math.MaxInt64
	ps.try(0, 0, fixed)
	for j := range ps.m {
		c.Start[ps.ids[j]] = ps.best[j]
	}
}

// try places the members perm[k:] in every order, recursively,
// restoring perm on the way back; extra[:e] are the intervals of the
// members placed so far, and local their block's maximum end.
func (ps *permSearch) try(k, e int, local int64) {
	if k == ps.m {
		if local < ps.bestLocal {
			ps.bestLocal = local
			ps.best = ps.start
		}
		return
	}
	perm := &ps.perm
	for i := k; i < ps.m; i++ {
		perm[k], perm[i] = perm[i], perm[k]
		j := perm[k]
		v := ps.ids[j]
		st := ps.fit(j, v, ps.extra[:e])
		ps.start[j] = st
		wv := ps.w[v]
		ne := e
		if wv > 0 {
			ps.extra[e] = core.Interval{Start: st, End: st + wv}
			ne++
		}
		ps.try(k+1, ne, max(local, st+wv))
		perm[k], perm[i] = perm[i], perm[k]
	}
}

// fit places member j, vertex v, against its fixed occupancy and extra.
func (ps *permSearch) fit(j, v int, extra []core.Interval) int64 {
	if ps.mapped[j] {
		if st, ok := ps.s.FitMap(&ps.maps[j], extra, v); ok {
			return st
		}
	}
	return ps.s.Fit(append(append(ps.trialBuf[:0], ps.occ[j]...), extra...), v)
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
			c.Start[v] = s.Place(c, v)
		}
	})
}
