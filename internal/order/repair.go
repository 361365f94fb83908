package order

import (
	"slices"

	"stencilivc/internal/core"
)

// Repair fixes a coloring that became invalid because vertex weights
// changed (the situation in dynamic applications like the flocking
// example, where cell loads shift every simulation step): vertices are
// visited in increasing old interval start; any vertex whose interval now
// collides with an already-visited neighbor, or that was never colored,
// is re-placed at its lowest feasible start. Vertices that still fit keep
// their starts, so consecutive steps reuse most of the previous schedule.
//
// Returns the number of vertices whose start changed. The coloring is
// guaranteed complete and valid afterwards.
func Repair(g core.Graph, c core.Coloring) int {
	old := slices.Clone(c.Start)
	// Never-colored vertices slot in around the kept ones; ties by id.
	const inf = uint64(1) << 62
	keys := make([]uint64, len(old))
	for v, s := range old {
		keys[v] = inf
		if s >= 0 {
			keys[v] = uint64(s)
		}
	}
	// Lift every vertex out, then revisit them in order, so the colored
	// vertices are exactly the visited ones: each is placed against the
	// already-visited subset only, and later vertices adapt around it.
	for v := range c.Start {
		c.Start[v] = core.Unset
	}
	var s core.FitScratch
	s.Bind(g)
	changed := 0
	for _, v := range core.OrderByKey(keys) {
		nb := s.Neighbors(v)
		if fits(g, c, v, old[v], nb) {
			c.Start[v] = old[v]
			continue
		}
		c.Start[v] = s.PlaceAmong(c, v, nb)
		if c.Start[v] != old[v] {
			changed++
		}
	}
	return changed
}

// fits reports whether v can keep start: it was colored, and its
// interval overlaps no colored vertex of nb.
func fits(g core.Graph, c core.Coloring, v int, start int64, nb []int) bool {
	if start < 0 {
		return false
	}
	iv := core.NewInterval(start, g.Weight(v))
	for _, u := range nb {
		if iv.Overlaps(c.Interval(g, u)) {
			return false
		}
	}
	return true
}
