package core

import (
	"errors"
	"fmt"
)

// Unset marks a vertex that has not been colored yet. Valid starts are
// always >= 0, so any negative value is safe; -1 is used throughout.
const Unset int64 = -1

// Coloring assigns each vertex the start of its color interval; vertex v
// occupies [Start[v], Start[v]+w(v)). A partial coloring stores Unset for
// uncolored vertices.
type Coloring struct {
	Start []int64
}

// NewColoring returns an all-Unset coloring for n vertices.
func NewColoring(n int) Coloring {
	start := make([]int64, n)
	for i := range start {
		start[i] = Unset
	}
	return Coloring{Start: start}
}

// Clone returns a deep copy of the coloring.
func (c Coloring) Clone() Coloring {
	return Coloring{Start: append([]int64{}, c.Start...)}
}

// Colored reports whether vertex v has been assigned an interval.
func (c Coloring) Colored(v int) bool { return c.Start[v] != Unset }

// Interval returns the color interval of v under graph g. The interval of
// an uncolored vertex is empty.
func (c Coloring) Interval(g Graph, v int) Interval {
	if !c.Colored(v) {
		return Interval{}
	}
	return NewInterval(c.Start[v], g.Weight(v))
}

// MaxColor returns maxcolor = max_v start(v)+w(v) over colored vertices.
// An empty or fully-uncolored coloring has maxcolor 0. A Lattice's
// weights are read from its slice, as UniformWeight reads them, with no
// interface call per vertex; any other graph's go through Weight.
func (c Coloring) MaxColor(g Graph) int64 {
	var mc int64
	if l, ok := g.(Lattice); ok {
		w, _, _, _ := l.Lattice()
		for v, s := range c.Start {
			if s != Unset {
				mc = max(mc, s+w[v])
			}
		}
		return mc
	}
	for v, s := range c.Start {
		if s != Unset {
			mc = max(mc, s+g.Weight(v))
		}
	}
	return mc
}

// ErrInvalidColoring is wrapped by every validation failure, so callers
// can test with errors.Is while still receiving a precise message.
var ErrInvalidColoring = errors.New("invalid coloring")

// Validate checks that the coloring is a complete, valid interval coloring
// of g: every vertex colored, every start non-negative, and every pair of
// neighbors on disjoint intervals. It returns nil on success and an error
// wrapping ErrInvalidColoring naming the first violation otherwise.
func (c Coloring) Validate(g Graph) error {
	if len(c.Start) != g.Len() {
		return fmt.Errorf("%w: coloring has %d vertices, graph has %d",
			ErrInvalidColoring, len(c.Start), g.Len())
	}
	for v := 0; v < g.Len(); v++ {
		if !c.Colored(v) {
			return fmt.Errorf("%w: vertex %d is uncolored", ErrInvalidColoring, v)
		}
		if c.Start[v] < 0 {
			return fmt.Errorf("%w: vertex %d has negative start %d",
				ErrInvalidColoring, v, c.Start[v])
		}
	}
	var buf []int
	for v := 0; v < g.Len(); v++ {
		iv := c.Interval(g, v)
		buf = g.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u <= v {
				continue // each edge checked once
			}
			if iv.Overlaps(c.Interval(g, u)) {
				return fmt.Errorf("%w: neighbors %d%v and %d%v overlap",
					ErrInvalidColoring, v, iv, u, c.Interval(g, u))
			}
		}
	}
	return nil
}

// ValidatePartial checks the colored subset of c: starts non-negative and
// no two colored neighbors overlapping. Uncolored vertices are ignored.
func (c Coloring) ValidatePartial(g Graph) error {
	if len(c.Start) != g.Len() {
		return fmt.Errorf("%w: coloring has %d vertices, graph has %d",
			ErrInvalidColoring, len(c.Start), g.Len())
	}
	var buf []int
	for v := 0; v < g.Len(); v++ {
		if !c.Colored(v) {
			continue
		}
		if c.Start[v] < 0 {
			return fmt.Errorf("%w: vertex %d has negative start %d",
				ErrInvalidColoring, v, c.Start[v])
		}
		iv := c.Interval(g, v)
		buf = g.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u <= v || !c.Colored(u) {
				continue
			}
			if iv.Overlaps(c.Interval(g, u)) {
				return fmt.Errorf("%w: neighbors %d%v and %d%v overlap",
					ErrInvalidColoring, v, iv, u, c.Interval(g, u))
			}
		}
	}
	return nil
}
