package core

import (
	"fmt"
	"slices"

	"stencilivc/internal/obsv"
)

// smallSortMax is the occupancy-list length up to which LowestFit sorts
// with an inline insertion sort instead of slices.SortFunc. Stencil
// degrees are at most 26, so the greedy hot path always stays on the
// inline branch; the library sort (O(d log d), but with an indirect
// comparator call) remains only for large general-graph neighborhoods.
const smallSortMax = 32

// LowestFit returns the smallest non-negative start s such that [s, s+w)
// does not overlap any interval in occ. occ is sorted in place by start;
// empty intervals are ignored. Zero-width requests always fit at 0.
//
// This is the single-vertex placement step of every greedy heuristic in
// Section V-A of the paper: sort the neighbor intervals by their lower
// end, then scan once for the first gap of width w. Complexity
// O(d log d) for d = len(occ).
func LowestFit(occ []Interval, w int64) int64 {
	if w <= 0 {
		return 0
	}
	if len(occ) <= smallSortMax {
		insertionSortByStart(occ)
	} else {
		slices.SortFunc(occ, byStart)
	}
	var cur int64
	for _, iv := range occ {
		if iv.Empty() {
			continue
		}
		if iv.Start-cur >= w {
			return cur
		}
		cur = max(cur, iv.End)
	}
	return cur
}

// insertionSortByStart sorts occ by byStart without allocating. It is the
// right sort for the d <= 26 occupancy lists stencils produce: branchy
// but tiny, with no closure, no interface dispatch, and no reflect-based
// swapper.
func insertionSortByStart(occ []Interval) {
	for i := 1; i < len(occ); i++ {
		iv := occ[i]
		j := i - 1
		for j >= 0 && byStart(occ[j], iv) > 0 {
			occ[j+1] = occ[j]
			j--
		}
		occ[j+1] = iv
	}
}

// FitScratch is a reusable buffer for repeated lowest-fit queries over a
// graph; it avoids per-vertex allocations in the greedy inner loop. When
// Stats is non-nil, every PlaceLowest records one placement and one probe
// per neighbor interval examined.
//
// Scratches are cheap to zero-construct, but solver loops that run per
// request (the service daemon) should acquire one from the arena with
// AcquireFitScratch so grown buffers survive across solves.
type FitScratch struct {
	nbuf []int
	occ  []Interval
	// fixN and fixI back the FixedGraph fast path: neighbor ids and
	// occupied intervals live in fixed-size arrays inside the scratch, so
	// the placement loop touches no slice growth and no heap at all.
	fixN [MaxFixedDegree]int
	fixI [MaxFixedDegree]Interval
	// uniFor/uniW memoize the uniform-weight verdict per graph, so the
	// per-placement dispatch onto the packed free-map kernel is one
	// interface compare. uniW > 0 means every vertex of uniFor weighs
	// uniW; uniW == 0 means the verdict for uniFor was "not uniform".
	uniFor Graph
	uniW   int64
	// Stats is an optional sink for placement/probe counters.
	Stats *Stats
	// Metrics is an optional metrics bundle; when non-nil every
	// PlaceLowest also feeds the vertices/probes counters and the
	// occupancy-list-length histogram with lock-free increments.
	Metrics *obsv.SolveMetrics
}

// PlaceLowest computes the lowest feasible start for vertex v given the
// colored neighbors in c, ignoring vertex skip (pass -1 to ignore none;
// skip is used by recoloring passes that lift v out before reinserting).
//
// Graphs implementing FixedGraph (the stencils) take an allocation-free
// fast path: neighbors are enumerated into a fixed-size array and the
// occupancy list never leaves the scratch, so the greedy inner loop does
// zero heap work per placement.
func (s *FitScratch) PlaceLowest(g Graph, c Coloring, v int, skip int) int64 {
	if fg, ok := g.(FixedGraph); ok {
		return s.placeFixed(fg, c, v, skip)
	}
	s.nbuf = g.Neighbors(v, s.nbuf[:0])
	s.occ = s.occ[:0]
	for _, u := range s.nbuf {
		if u == skip || !c.Colored(u) {
			continue
		}
		iv := c.Interval(g, u)
		if !iv.Empty() {
			s.occ = append(s.occ, iv)
		}
	}
	if s.Stats != nil {
		s.Stats.AddPlacements(1)
		s.Stats.AddProbes(int64(len(s.occ)))
	}
	if s.Metrics != nil {
		s.Metrics.Vertices.Add(1)
		s.Metrics.Probes.Add(int64(len(s.occ)))
		s.Metrics.OccLen.ObserveInt(int64(len(s.occ)))
	}
	w := g.Weight(v)
	if s.uniformFor(g) > 0 {
		if start, ok := LowestFitUniform(s.occ, w); ok {
			return start
		}
	}
	if len(s.occ) <= smallSortMax {
		return LowestFitStream(s.occ, w)
	}
	return LowestFit(s.occ, w)
}

// uniformFor returns the memoized uniform weight of g (0 when g's
// weights are not uniform), recomputing the memo on graph change. The
// verdict itself is cached on the graph (UniformWeighter), so a memo
// miss costs one interface call, not a weight scan, for the stencils
// and CSR.
func (s *FitScratch) uniformFor(g Graph) int64 {
	if g != s.uniFor {
		s.uniFor = g
		s.uniW = 0
		if w, ok := UniformWeight(g); ok {
			s.uniW = w
		}
	}
	return s.uniW
}

// placeFixed is PlaceLowest specialized to fixed-degree (stencil) graphs.
func (s *FitScratch) placeFixed(g FixedGraph, c Coloring, v int, skip int) int64 {
	if s.uniformFor(g) > 0 {
		if start, ok := s.placeFixedBits(g, c, v, skip); ok {
			return start
		}
	}
	deg := g.NeighborsFixed(v, &s.fixN)
	m := 0
	for t := 0; t < deg; t++ {
		u := s.fixN[t]
		if u == skip {
			continue
		}
		sv := c.Start[u]
		if sv == Unset {
			continue
		}
		w := g.Weight(u)
		if w <= 0 {
			continue
		}
		s.fixI[m] = Interval{Start: sv, End: sv + w}
		m++
	}
	if s.Stats != nil {
		s.Stats.AddPlacements(1)
		s.Stats.AddProbes(int64(m))
	}
	if s.Metrics != nil {
		s.Metrics.Vertices.Add(1)
		s.Metrics.Probes.Add(int64(m))
		s.Metrics.OccLen.ObserveInt(int64(m))
	}
	return LowestFitStream(s.fixI[:m], g.Weight(v))
}

// placeFixedBits is the uniform-weight fast path of placeFixed: the
// occupancy of v's colored neighbors is a packed slot bitmap and the
// lowest fit is one word-level first-free scan — no interval is ever
// materialized and no neighbor weight is ever loaded (uniformity makes
// them all s.uniW). It reports false, recording nothing, when a
// neighbor start breaks the multiple-of-w invariant; the caller then
// takes the general interval path. Placement/probe accounting matches
// the interval kernel exactly, so the two paths are observably
// identical except for speed.
func (s *FitScratch) placeFixedBits(g FixedGraph, c Coloring, v int, skip int) (int64, bool) {
	w := s.uniW
	deg := g.NeighborsFixed(v, &s.fixN)
	var f freeMap
	m := 0
	for t := 0; t < deg; t++ {
		u := s.fixN[t]
		if u == skip {
			continue
		}
		su := c.Start[u]
		if su < 0 {
			continue // Unset
		}
		slot, ok := slotOf(su, w)
		if !ok {
			return 0, false
		}
		f.set(slot)
		m++
	}
	if s.Stats != nil {
		s.Stats.AddPlacements(1)
		s.Stats.AddProbes(int64(m))
	}
	if s.Metrics != nil {
		s.Metrics.Vertices.Add(1)
		s.Metrics.Probes.Add(int64(m))
		s.Metrics.OccLen.ObserveInt(int64(m))
	}
	return f.firstFree() * w, true
}

// GreedyColor colors the vertices of g one at a time in the given order,
// assigning each the lowest color interval that does not intersect any
// already-colored neighbor. order must be a permutation of 0..g.Len()-1;
// this is checked. The result is always a valid complete coloring.
//
// Complexity O(E log E) over the whole graph (Section V-A).
func GreedyColor(g Graph, order []int) (Coloring, error) {
	return GreedyColorOpts(g, order, nil)
}

// GreedyColorOpts is GreedyColor threaded with SolveOptions: it polls
// opts for cancellation every CtxCheckInterval placements (returning the
// context's error with no coloring) and records placements and probes
// into the stats sink. A nil opts behaves exactly like GreedyColor.
func GreedyColorOpts(g Graph, order []int, opts *SolveOptions) (Coloring, error) {
	if err := CheckPermutation(order, g.Len()); err != nil {
		return Coloring{}, err
	}
	c := NewColoring(g.Len())
	// A stack scratch, not the arena: a single greedy pass over a stencil
	// stays on the fixed-array path and never grows heap state, so the
	// pool would only add a Get/Put (and a cold-miss allocation) here.
	// The arena pays off where scratches are acquired repeatedly — tile
	// workers and the recoloring passes.
	s := FitScratch{Stats: opts.Sink(), Metrics: opts.Meters()}
	for i, v := range order {
		if i%CtxCheckInterval == 0 {
			if err := opts.Err(); err != nil {
				return Coloring{}, err
			}
		}
		c.Start[v] = s.PlaceLowest(g, c, v, -1)
	}
	return c, nil
}

// CheckPermutation verifies that order is a permutation of 0..n-1.
func CheckPermutation(order []int, n int) error {
	if len(order) != n {
		return &PermError{Got: len(order), Want: n}
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return &PermError{Got: len(order), Want: n, Bad: v, HasBad: true}
		}
		seen[v] = true
	}
	return nil
}

// PermError reports an order slice that is not a permutation.
type PermError struct {
	Got, Want int
	Bad       int
	HasBad    bool
}

// Error formats the violation, naming the offending vertex when known.
func (e *PermError) Error() string {
	if e.HasBad {
		return fmt.Sprintf("core: order is not a permutation (bad or repeated vertex %d)", e.Bad)
	}
	return fmt.Sprintf("core: order has length %d, want %d", e.Got, e.Want)
}
