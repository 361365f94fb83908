package parallel

import "stencilivc/internal/core"

// placer is the reusable lowest-fit placement kernel of the
// tile-parallel solver. It owns the fixed-size neighbor and occupancy
// arrays sized for stencil degrees (core.MaxFixedDegree), so a
// placement allocates nothing, and it carries the solve-wide
// uniform-weight verdict that routes placements onto the packed
// free-map kernel.
//
// A placement is a Begin / Observe* / Commit sequence: Begin names the
// vertex and exposes its neighbor list, the caller decides under its
// visibility mode (run.place) which neighbors to Observe, and Commit
// dispatches the gathered occupancy to the kernel ladder. A placer is
// not safe for concurrent use; each worker scratch embeds its own.
type placer struct {
	g    core.FixedGraph
	uniW int64
	nb   [core.MaxFixedDegree]int
	occ  [core.MaxFixedDegree]core.Interval
	m    int

	// Placements and Probes count Commit calls and Observed intervals
	// since the last Reset; callers flush them into their stats sinks in
	// bulk instead of paying per-placement metric updates.
	Placements int64
	Probes     int64
}

// Reset rebinds the placer to g with the given uniform-weight verdict
// (0 when weights are mixed) and zeroes the flush counters. The verdict
// is computed once per solve and shared across workers.
func (p *placer) Reset(g core.FixedGraph, uniformW int64) {
	p.g, p.uniW = g, uniformW
	p.m = 0
	p.Placements, p.Probes = 0, 0
}

// Begin starts the placement of v: it clears the gathered occupancy and
// returns v's neighbor list (backed by the placer's own array — valid
// until the next Begin).
func (p *placer) Begin(v int) []int {
	p.m = 0
	deg := p.g.NeighborsFixed(v, &p.nb)
	return p.nb[:deg]
}

// Observe records one neighbor's interval in the gathered occupancy.
// Unset starts and non-positive weights are skipped — uncolored and
// zero-width neighbors constrain nothing — so callers pass whatever
// state they read without pre-filtering.
func (p *placer) Observe(start, weight int64) {
	if start == core.Unset || weight <= 0 {
		return
	}
	p.occ[p.m] = core.Interval{Start: start, End: start + weight}
	p.m++
}

// Observed reports how many intervals the current placement gathered.
func (p *placer) Observed() int { return p.m }

// Commit dispatches the gathered occupancy to the kernel ladder and
// returns the lowest-fit start for a vertex of the given weight: the
// packed free-map scan when the solve-wide uniform verdict holds (and
// no hand-built start broke the multiple-of-w invariant), the sort-free
// streaming min-gap scan otherwise — occupancy here is at most
// MaxFixedDegree entries, well inside the streaming kernel's sweet
// spot.
func (p *placer) Commit(weight int64) int64 {
	p.Placements++
	p.Probes += int64(p.m)
	if p.uniW > 0 {
		if s, ok := core.LowestFitUniform(p.occ[:p.m], weight); ok {
			return s
		}
	}
	return core.LowestFitStream(p.occ[:p.m], weight)
}
