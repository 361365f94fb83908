package core

import (
	"fmt"
	"slices"
	"sync/atomic"
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

// occTallyLen is the number of exact cells in a kernel's occupancy
// tally: list lengths 0..32, which covers every stencil placement
// (MaxFixedDegree = 26) and every finite bucket of the
// ivc_occupancy_list_length histogram. Longer lists (general graphs
// only) share one overflow tally; they all land in the +Inf bucket.
const occTallyLen = 33

// FitScratch is the placement kernel every solver in this module places
// vertices through: the greedy engine, the block sweeps, BD's
// recoloring pass, the tile workers of the parallel solver,
// order.Repair and the exact search. It owns the one gather loop over
// a vertex's colored neighbors, the one dispatch ladder (packed free
// map when all weights are equal, then the streaming scan, then the
// sort for long general-graph lists), and per-solve tallies of the
// work done, which Flush hands to the stats sink and metrics bundle
// once per solve.
//
// A kernel is bound to one graph at a time and caches, when it binds,
// the graph's weights as one slice, its uniform-weight verdict and, for
// a Lattice, its interior offset table. The zero value is ready to use:
// PlaceLowest binds on first use and rebinds whenever it is handed a
// different graph. A FitScratch is not safe for concurrent use; each
// tile worker embeds its own.
type FitScratch struct {
	binding
	// fixN and fixI back placements with at most MaxFixedDegree
	// neighbors (every Lattice placement): ids and occupied intervals
	// live in fixed-size arrays, so the gather allocates nothing.
	fixN [MaxFixedDegree]int
	fixI [MaxFixedDegree]Interval
	// nbuf and occ are the growable buffers of general graphs.
	nbuf []int
	occ  []Interval
	// The tallies since the last Flush: occLen[m] counts placements
	// against m occupied intervals; long and longProbes count the
	// placements against occTallyLen or more and their intervals; bulk
	// counts placements made outside the kernel (AddPlacements).
	occLen           [occTallyLen]int64
	long, longProbes int64
	bulk             int64
}

// binding is what Bind caches about the bound graph; BindAs copies it
// whole.
type binding struct {
	g    Graph
	uniW int64   // the common weight of every vertex of g, 0 when mixed
	w    []int64 // the weight of every vertex of g, by id
	// x, y and z are a bound Lattice's extents, and off[:deg] the ids
	// of an interior vertex's neighbors relative to its own, in
	// Neighbors' (dk, dj, di) order: 8 in-plane offsets when z = 1,
	// else 26. deg is 0 for any other graph.
	x, y, z int
	off     [MaxFixedDegree]int
	deg     int
}

// Bind points the kernel at g and caches what every placement would
// otherwise recompute: g's weights as one slice, its uniform-weight
// verdict and, when g is a Lattice, its extents and interior offset
// table. A Lattice's or CSRGraph's own weight slice is bound as it is;
// any other graph's weights are copied, so the gather reads a slice on
// every graph. Solvers bind once per solve; tallies are kept across a
// rebind.
func (s *FitScratch) Bind(g Graph) {
	b := binding{g: g}
	switch l := g.(type) {
	case Lattice:
		b.w, b.x, b.y, b.z = l.Lattice()
		// A lattice one layer deep has exactly its plane's neighbors.
		dk := min(b.z-1, 1)
		for k := -dk; k <= dk; k++ {
			for j := -1; j <= 1; j++ {
				for i := -1; i <= 1; i++ {
					if i != 0 || j != 0 || k != 0 {
						b.off[b.deg] = (k*b.y+j)*b.x + i
						b.deg++
					}
				}
			}
		}
	case *CSRGraph:
		b.w = l.weights
	default:
		b.w = make([]int64, g.Len())
		for v := range b.w {
			b.w[v] = g.Weight(v)
		}
	}
	b.uniW, _ = UniformWeight(g)
	s.binding = b
}

// BindAs binds s to the graph o is bound to, copying o's binding
// instead of rescanning the weights, so the tile workers of one solve
// share a single bind.
func (s *FitScratch) BindAs(o *FitScratch) { s.binding = o.binding }

// PlaceLowest computes the lowest feasible start for vertex v given the
// colored neighbors in c, ignoring vertex skip (pass -1 to ignore none;
// skip is used by recoloring passes that lift v out before reinserting).
// It binds the kernel to g first when g is not the bound graph.
func (s *FitScratch) PlaceLowest(g Graph, c Coloring, v int, skip int) int64 {
	if g != s.g {
		s.Bind(g)
	}
	nb := s.Neighbors(v)
	if skip >= 0 {
		nb = slices.DeleteFunc(nb, func(u int) bool { return u == skip })
	}
	return s.Place(c, v, nb)
}

// Neighbors lists v's neighbors in the bound graph, in the kernel's own
// buffer (valid until the next call). Callers may drop entries before
// passing the list to Place: that is how visibility rules, such as the
// parallel solver's blind speculation, reach the kernel.
//
// On a Lattice an interior vertex's list comes from the offset table
// and a boundary vertex's from the grid's Neighbors, both in the fixed
// array.
func (s *FitScratch) Neighbors(v int) []int {
	if s.deg == 0 {
		s.nbuf = s.g.Neighbors(v, s.nbuf[:0])
		return s.nbuf
	}
	if !s.interior(v) {
		return s.g.Neighbors(v, s.fixN[:0])
	}
	nb := s.fixN[:s.deg]
	for k, off := range s.off[:s.deg] {
		nb[k] = v + off
	}
	return nb
}

// interior reports whether v lies off every face of the bound lattice,
// so that all of off[:deg] are its neighbors: one divide when z = 1,
// two otherwise.
func (s *FitScratch) interior(v int) bool {
	q := v / s.x
	if i := v - q*s.x; i == 0 || i == s.x-1 {
		return false
	}
	if s.z == 1 {
		return q > 0 && q < s.y-1
	}
	k := q / s.y
	j := q - k*s.y
	return j > 0 && j < s.y-1 && k > 0 && k < s.z-1
}

// Place returns the lowest start for v whose interval avoids every
// colored vertex of nb in c, and tallies the placement. nb is a list
// from Neighbors, possibly filtered. Starts are read atomically, so
// tile workers can place against a coloring other workers are writing.
func (s *FitScratch) Place(c Coloring, v int, nb []int) int64 {
	if s.uniW > 0 {
		if start, ok := s.placeSlots(c.Start, nb); ok {
			return start
		}
	}
	if len(nb) > len(s.fixI) {
		s.occ = s.Gather(s.occ[:0], c, nb)
		return s.Fit(s.occ, v)
	}
	return s.Fit(s.Gather(s.fixI[:0], c, nb), v)
}

// Gather appends to occ the interval of every colored vertex of nb in c
// (zero-weight vertices occupy none) and returns the extended list; it
// is the first half of Place's interval rung, and the kernel's only
// gather loop. A caller that places one vertex many times against a
// partly fixed neighborhood, like SGK's permutation search, gathers the
// fixed part once and appends the rest before each Fit. Starts are read
// atomically, as in Place.
func (s *FitScratch) Gather(occ []Interval, c Coloring, nb []int) []Interval {
	w, start := s.w, c.Start
	for _, u := range nb {
		su := atomic.LoadInt64(&start[u])
		if su == Unset {
			continue
		}
		if wu := w[u]; wu > 0 {
			occ = append(occ, Interval{Start: su, End: su + wu})
		}
	}
	return occ
}

// Fit is the second half of Place's interval rung: it tallies one
// placement of v against occ and returns the lowest start whose
// interval avoids all of occ, scanning short lists and sorting long
// ones (which it may reorder).
func (s *FitScratch) Fit(occ []Interval, v int) int64 {
	s.tally(len(occ))
	if len(occ) <= smallSortMax {
		return LowestFitStream(occ, s.w[v])
	}
	return LowestFit(occ, s.w[v])
}

// placeSlots is the uniform-weight rung of Place: each colored
// neighbor's start goes straight into a packed free map as it is read
// (no interval is built and no neighbor weight loaded, since all equal
// uniW), and the lowest fit is the map's first free slot. It reports
// false, tallying nothing, when a start breaks the multiple-of-w
// invariant or the occupancy could overflow the map; Place then takes
// the interval rungs, which give the same answer.
func (s *FitScratch) placeSlots(start []int64, nb []int) (int64, bool) {
	w := s.uniW
	var f freeMap
	m := 0
	for _, u := range nb {
		su := atomic.LoadInt64(&start[u])
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
	if m >= freeMapSlots {
		return 0, false
	}
	s.tally(m)
	return f.firstFree() * w, true
}

// tally records one placement against m occupied intervals.
func (s *FitScratch) tally(m int) {
	if m < occTallyLen {
		s.occLen[m]++
		return
	}
	s.long++
	s.longProbes += int64(m)
}

// AddPlacements tallies n placements made without a lowest-fit probe
// (BD's optimal chain colorings), so they reach the sinks through Flush
// like the kernel's own.
func (s *FitScratch) AddPlacements(n int64) { s.bulk += n }

// Flush adds the tallies since the last flush to the stats sink and the
// metrics bundle of opts, the counters on the given shard (tile workers
// flush concurrently on distinct shards), and zeroes them. It is the
// only writer of the placement, probe and occupancy-length metrics;
// solvers call it once per solve. With no sinks it only zeroes.
func (s *FitScratch) Flush(opts *SolveOptions, shard int) {
	sm := opts.Meters()
	placements, probes := s.bulk+s.long, s.longProbes
	for m, n := range s.occLen {
		if n > 0 {
			placements += n
			probes += int64(m) * n
			if sm != nil {
				sm.OccLen.ObserveN(float64(m), n)
			}
		}
	}
	if placements == 0 {
		return
	}
	if sm != nil {
		if s.long > 0 {
			sm.OccLen.ObserveSum(occTallyLen, s.long, float64(s.longProbes))
		}
		sm.Vertices.AddShard(shard, placements)
		sm.Probes.AddShard(shard, probes)
	}
	st := opts.Sink()
	st.AddPlacements(placements)
	st.AddProbes(probes)
	s.occLen = [occTallyLen]int64{}
	s.long, s.longProbes, s.bulk = 0, 0, 0
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
// context's error with no coloring) and flushes its placement tallies
// into opts' sinks when it returns. A nil opts behaves exactly like
// GreedyColor.
func GreedyColorOpts(g Graph, order []int, opts *SolveOptions) (Coloring, error) {
	if err := CheckPermutation(order, g.Len()); err != nil {
		return Coloring{}, err
	}
	c := NewColoring(g.Len())
	var s FitScratch
	s.Bind(g)
	defer s.Flush(opts, 0)
	for i, v := range order {
		if i%CtxCheckInterval == 0 {
			if err := opts.Err(); err != nil {
				return Coloring{}, err
			}
		}
		c.Start[v] = s.Place(c, v, s.Neighbors(v))
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
