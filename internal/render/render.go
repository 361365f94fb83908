// Package render draws colorings and schedules as ASCII art: weight heat
// maps of instances, per-cell interval tables, and Gantt charts of
// simulated executions. cmd/ivc and the examples use it to make results
// inspectable in a terminal; everything returns plain strings, so the
// renderings are also asserted in tests.
package render

import (
	"fmt"
	"strings"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/sched"
)

// Weights2D renders a 2D grid's weights as a heat map, one glyph per
// cell, row j=0 at the bottom (matching the paper's figures).
func Weights2D(g *grid.Grid2D) string {
	glyphs := []byte(" .:-=+*#%@")
	var maxW int64 = 1
	for v := range g.Len() {
		maxW = max(maxW, g.Weight(v))
	}
	var b strings.Builder
	for j := g.Y() - 1; j >= 0; j-- {
		for i := 0; i < g.X(); i++ {
			w := g.At(i, j)
			idx := 0
			if w > 0 {
				idx = 1 + int(int64(len(glyphs)-2)*w/maxW)
			}
			b.WriteByte(glyphs[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Intervals2D renders each cell's color interval in a fixed-width table,
// row j=0 at the top (reading order).
func Intervals2D(g *grid.Grid2D, c core.Coloring) string {
	var b strings.Builder
	width := len(fmt.Sprintf("%d", c.MaxColor(g)))
	for j := 0; j < g.Y(); j++ {
		for i := 0; i < g.X(); i++ {
			v := g.ID(i, j)
			fmt.Fprintf(&b, "[%*d,%*d) ", width, c.Start[v], width, c.Start[v]+g.Weight(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Gantt renders a simulated schedule as one row per processor; each task
// paints its span with a cycling glyph and is labeled at its start when
// space allows. width is the number of character columns the makespan is
// scaled onto.
func Gantt(d *sched.DAG, s *sched.Schedule, p, width int) (string, error) {
	if width < 10 {
		return "", fmt.Errorf("render: width %d too small", width)
	}
	if p < 1 {
		return "", fmt.Errorf("render: %d processors", p)
	}
	makespan := max(s.Makespan, 1)
	rows := make([][]byte, p)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	glyphs := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	for v := 0; v < d.Len(); v++ {
		if d.Duration[v] == 0 {
			continue
		}
		w := s.Worker[v]
		if w < 0 || w >= p {
			return "", fmt.Errorf("render: task %d on worker %d of %d", v, w, p)
		}
		from := int(s.Start[v] * int64(width) / makespan)
		to := int((s.Start[v] + d.Duration[v]) * int64(width) / makespan)
		to = max(to, from+1)
		to = min(to, width)
		glyph := glyphs[v%len(glyphs)]
		for x := from; x < to; x++ {
			rows[w][x] = glyph
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %d on %d processors (each column ~ %.1f time units)\n",
		s.Makespan, p, float64(makespan)/float64(width))
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-2d |%s|\n", i, row)
	}
	return b.String(), nil
}
