package core

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// smallSortMax is the longest occupancy list Fit answers without a sort,
// from the color map or the streaming scan. Stencil degrees are at most
// 26, so every stencil placement stays below it; only general-graph
// neighborhoods longer than 32 reach LowestFit's sort.
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
	slices.SortFunc(occ, byStart)
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
// a vertex's neighbors, the one dispatch ladder (the uniform slot map
// when all weights are equal, then the color map for occupancies that
// end by color 256, then the streaming scan, then the sort for long
// general-graph lists), and per-solve tallies of the work done, which
// Flush hands to the stats sink and metrics bundle once per solve.
//
// A kernel is bound to one graph at a time and caches, when it binds,
// the graph's weights as one slice, its uniform-weight verdict and, for
// a Lattice, its interior offset table and the reciprocals of its
// extents. The zero value is ready to use: PlaceLowest binds on first
// use and rebinds whenever it is handed a different graph. A FitScratch
// is not safe for concurrent use; each tile worker embeds its own.
type FitScratch struct {
	binding
	// fixN and fixI back placements with at most MaxFixedDegree
	// neighbors (every Lattice placement): a boundary vertex's ids and
	// the gathered intervals live in fixed-size arrays, so a placement
	// allocates nothing.
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
	uniD Divisor // divides a start by uniW, when uniW > 0
	w    []int64 // the weight of every vertex of g, by id
	// x, y and z are a bound Lattice's extents, rx and ry divide by x
	// and y, and off[:deg] holds the ids of an interior vertex's
	// neighbors relative to its own, in Neighbors' (dk, dj, di) order:
	// 8 in-plane offsets when z = 1, else 26. deg is 0 for any other
	// graph.
	x, y, z int
	rx, ry  Divisor
	off     [MaxFixedDegree]int
	deg     int
}

// Bind points the kernel at g and caches what every placement would
// otherwise recompute: g's weights as one slice, its uniform-weight
// verdict and, when g is a Lattice, its extents, their reciprocals and
// its interior offset table. A Lattice's or CSRGraph's own weight slice
// is bound as it is; any other graph's weights are copied, so the
// gather reads a slice on every graph. Solvers bind once per solve;
// tallies are kept across a rebind.
func (s *FitScratch) Bind(g Graph) {
	b := binding{g: g}
	switch l := g.(type) {
	case Lattice:
		b.w, b.x, b.y, b.z = l.Lattice()
		b.rx, b.ry = NewDivisor(int64(b.x)), NewDivisor(int64(b.y))
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
	if b.uniW > 0 {
		b.uniD = NewDivisor(b.uniW)
	}
	s.binding = b
}

// BindAs binds s to the graph o is bound to, copying o's binding
// instead of rescanning the weights, so the tile workers of one solve
// share a single bind.
func (s *FitScratch) BindAs(o *FitScratch) { s.binding = o.binding }

// Weights returns the bound graph's weight slice, indexed by vertex id.
// It is read-only: on a Lattice or a CSRGraph it is the graph's own
// storage.
func (s *FitScratch) Weights() []int64 { return s.w }

// PlaceLowest computes the lowest feasible start for vertex v given the
// colored neighbors in c, ignoring vertex skip (pass -1 to ignore none;
// skip is used by recoloring passes that lift v out before reinserting).
// It binds the kernel to g first when g is not the bound graph.
func (s *FitScratch) PlaceLowest(g Graph, c Coloring, v int, skip int) int64 {
	if g != s.g {
		s.Bind(g)
	}
	if skip < 0 {
		return s.Place(c, v)
	}
	nb := slices.DeleteFunc(s.Neighbors(v), func(u int) bool { return u == skip })
	return s.PlaceAmong(c, v, nb)
}

// around returns v's neighbors in the bound graph as offsets from a
// base: from v itself, the bound offset table, for an interior Lattice
// vertex; from 0, a list of ids in one of the kernel's buffers, for any
// other vertex. Vertex 0 lies on a face, so an interior base is never 0.
func (s *FitScratch) around(v int) (base int, offs []int) {
	switch {
	case s.deg == 0:
		s.nbuf = s.g.Neighbors(v, s.nbuf[:0])
		return 0, s.nbuf
	case s.interior(v):
		return v, s.off[:s.deg]
	default:
		return 0, s.g.Neighbors(v, s.fixN[:0])
	}
}

// Neighbors lists v's neighbors in the bound graph, in the kernel's own
// buffer (valid until the next call). Callers may drop entries before
// passing the list to PlaceAmong: that is how visibility rules, such as
// the parallel solver's blind speculation, reach the kernel.
//
// On a Lattice an interior vertex's list comes from the offset table
// and a boundary vertex's from the grid's Neighbors, both in the fixed
// array.
func (s *FitScratch) Neighbors(v int) []int {
	base, offs := s.around(v)
	if base == 0 {
		return offs
	}
	nb := s.fixN[:len(offs)]
	for k, off := range offs {
		nb[k] = base + off
	}
	return nb
}

// interior reports whether v lies off every face of the bound lattice,
// so that all of off[:deg] are its neighbors. The one or two quotients
// are taken by the bound reciprocals, a multiply each.
func (s *FitScratch) interior(v int) bool {
	q := int(s.rx.Div(uint64(v)))
	if i := v - q*s.x; i == 0 || i == s.x-1 {
		return false
	}
	if s.z == 1 {
		return q > 0 && q < s.y-1
	}
	k := int(s.ry.Div(uint64(q)))
	j := q - k*s.y
	return j > 0 && j < s.y-1 && k > 0 && k < s.z-1
}

// Place returns the lowest start for v whose interval avoids every
// colored neighbor of v in c, and tallies the placement. An interior
// Lattice vertex is placed straight from the bound offset table, with
// no neighbor list built. Starts are read atomically, so tile workers
// can place against a coloring other workers are writing.
func (s *FitScratch) Place(c Coloring, v int) int64 {
	base, offs := s.around(v)
	return s.placeAt(c, v, base, offs)
}

// PlaceAmong is Place against the colored vertices of nb only: a list
// from Neighbors, possibly filtered.
func (s *FitScratch) PlaceAmong(c Coloring, v int, nb []int) int64 {
	return s.placeAt(c, v, 0, nb)
}

// placeAt places v against the vertices base+off, off in offs: the one
// body behind Place and PlaceAmong, which reads a list as offsets from
// base 0.
func (s *FitScratch) placeAt(c Coloring, v, base int, offs []int) int64 {
	if s.uniW > 0 {
		if start, ok := s.placeSlots(c.Start, base, offs); ok {
			return start
		}
	}
	occ := s.fixI[:]
	if len(offs) > len(occ) {
		s.occ = slices.Grow(s.occ[:0], len(offs))
		occ = s.occ[:len(offs)]
	}
	return s.Fit(s.gather(occ, c.Start, base, offs), v)
}

// gather is the kernel's only gather loop. It writes the interval of
// every vertex base+off into occ, which must hold len(offs) intervals,
// and returns the prefix of those that are colored and weigh something:
// each interval is written at the prefix's end, which advances by the
// sign bit of (x | -x) & -wu, x = su - Unset, set iff su != Unset and
// wu > 0. The loop has no branch on whether a neighbor is colored,
// which no predictor can learn when the visit order is not a sweep.
// Starts are read atomically. The weights are cut to the starts'
// length, so one bounds check covers both reads.
func (s *FitScratch) gather(occ []Interval, start []int64, base int, offs []int) []Interval {
	w := s.w[:len(start)]
	occ = occ[:len(offs)]
	n := 0
	for _, off := range offs {
		u := base + off
		su := atomic.LoadInt64(&start[u])
		wu := w[u]
		iv := &occ[n]
		iv.Start, iv.End = su, su+wu
		x := su - Unset
		n += int(uint64((x|-x)&-wu) >> 63)
	}
	return occ[:n]
}

// Gather appends to occ the interval of every colored neighbor of v in
// c (zero-weight vertices occupy none) and returns the extended list,
// through the same loop as Place. A caller that places one vertex many
// times against a partly fixed neighborhood, like SGK's permutation
// search, gathers the fixed part once and marks it in a ColorMap, or
// appends the rest before each Fit.
func (s *FitScratch) Gather(occ []Interval, c Coloring, v int) []Interval {
	base, offs := s.around(v)
	m := len(occ)
	occ = slices.Grow(occ, len(offs))
	return occ[:m+len(s.gather(occ[m:m+len(offs)], c.Start, base, offs))]
}

// Fit is the second half of Place's interval rung: it tallies one
// placement of v against occ and returns the lowest start whose
// interval avoids all of occ. A list of at most smallSortMax intervals
// is marked in a 256-color map and answered from it, or, when one of
// its intervals ends past the map, by the streaming scan; a longer list
// is sorted (Fit may reorder it).
func (s *FitScratch) Fit(occ []Interval, v int) int64 {
	s.tally(len(occ))
	w := s.w[v]
	switch {
	case w <= 0:
		return 0
	case len(occ) > smallSortMax:
		return LowestFit(occ, w)
	}
	var m ColorMap
	if start, ok := m.fit(occ, w); ok {
		return start
	}
	return LowestFitStream(occ, w)
}

// FitMap tallies one placement of v against the intervals marked in m
// plus extra and returns the lowest start whose interval avoids them
// all, leaving m as it was: extra is marked in a copy. It reports false,
// tallying nothing, when an interval of extra ends past the map; the
// caller then fits the full list with Fit, which gives the same answer.
func (s *FitScratch) FitMap(m *ColorMap, extra []Interval, v int) (int64, bool) {
	t := *m
	start, ok := t.fit(extra, s.w[v])
	if ok {
		s.tally(t.n)
	}
	return start, ok
}

// placeSlots is the uniform-weight rung of Place: each colored
// neighbor's start goes straight into a packed free map as it is read
// (no interval is built and no neighbor weight loaded, since all equal
// uniW), and the lowest fit is the map's first free slot. It reports
// false, tallying nothing, when a start breaks the multiple-of-w
// invariant or the occupancy could overflow the map; Place then takes
// the interval rungs, which give the same answer.
func (s *FitScratch) placeSlots(start []int64, base int, offs []int) (int64, bool) {
	var f freeMap
	m := 0
	for _, off := range offs {
		su := atomic.LoadInt64(&start[base+off])
		if su < 0 {
			continue // Unset
		}
		slot, ok := slotOf(su, s.uniD)
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
	return f.firstFree() * s.uniW, true
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
// metrics bundle of opts, and zeroes them. It is the only writer of the
// placement, probe and occupancy-length metrics; solvers call it once
// per solve, and each tile worker once per solve. With no sinks it only
// zeroes.
func (s *FitScratch) Flush(opts *SolveOptions) {
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
		sm.Vertices.Add(placements)
		sm.Probes.Add(probes)
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
	defer s.Flush(opts)
	for i, v := range order {
		if i%CtxCheckInterval == 0 {
			if err := opts.Err(); err != nil {
				return Coloring{}, err
			}
		}
		c.Start[v] = s.Place(c, v)
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
