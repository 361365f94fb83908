// Flocking: parallelize a bird-flocking (boids) simulation with interval
// coloring, one of the applications the paper's introduction motivates
// (Reynolds' boids, reference [3]).
//
// The world is split into a grid of cells at least twice the interaction
// radius wide, so a cell's boids only interact with the 8 neighboring
// cells: the conflict graph is a 9-pt stencil whose cell weights are boid
// counts. Each step colors the stencil and runs cell updates on a worker
// pool honoring the induced dependency DAG. Updates happen in place
// (Gauss-Seidel style): a cell writes its own boids while neighbor cells
// read them, so the coloring is exactly what makes the parallel step
// race-free — two conflicting cells never run concurrently.
//
// Run with:
//
//	go run ./examples/flocking
package main

import (
	"container/heap"
	"fmt"
	"log"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"stencilivc"
)

const (
	worldSize = 100.0
	radius    = 2.5 // interaction radius; cells must be >= 2*radius wide
	cells     = 16  // 16 cells of width 6.25 >= 5.0: 9-pt conflicts only
	numBoids  = 4000
	steps     = 10
)

type boid struct {
	x, y, vx, vy float64
}

func main() {
	rng := rand.New(rand.NewSource(7))
	boids := make([]boid, numBoids)
	for i := range boids {
		boids[i] = boid{
			x: rng.Float64() * worldSize, y: rng.Float64() * worldSize,
			vx: rng.NormFloat64(), vy: rng.NormFloat64(),
		}
	}

	workers := runtime.NumCPU()
	fmt.Printf("boids: %d, grid: %dx%d cells, %d workers\n", numBoids, cells, cells, workers)

	var coloring stencilivc.Coloring
	for step := 0; step < steps; step++ {
		// Bin the boids into cells.
		cellBoids := make([][]int, cells*cells)
		g := stencilivc.MustGrid2D(cells, cells)
		for i, b := range boids {
			c := cellOf(b.x, b.y)
			cellBoids[c] = append(cellBoids[c], i)
			ci, cj := g.Coords(c)
			g.Set(ci, cj, g.At(ci, cj)+1)
		}

		// First step: color from scratch. Later steps: the weights only
		// shifted a little, so incrementally repair the previous schedule
		// instead of recoloring everything.
		moved := 0
		if step == 0 {
			var err error
			coloring, err = stencilivc.Solve2D(stencilivc.BDP, g)
			if err != nil {
				log.Fatal(err)
			}
		} else {
			moved = stencilivc.RepairColoring(g, coloring)
		}
		dag, err := stencilivc.TaskDAG(g, coloring)
		if err != nil {
			log.Fatal(err)
		}

		runDAG(dag, workers, func(cell int) {
			updateCell(boids, cellBoids, cell)
		})

		if sim, err := stencilivc.Simulate(dag, workers); err == nil {
			fmt.Printf("step %2d: %3d colors (%3d cells recolored), makespan %5d vs sequential %5d (%.1fx)\n",
				step, coloring.MaxColor(g), moved, sim.Makespan, dag.TotalWork(),
				float64(dag.TotalWork())/float64(max(sim.Makespan, 1)))
		}
	}
	// Flock coherence: mean speed should remain finite and positive.
	var speed float64
	for _, b := range boids {
		speed += math.Hypot(b.vx, b.vy)
	}
	fmt.Printf("final mean speed: %.3f\n", speed/float64(len(boids)))
}

func cellOf(x, y float64) int {
	i := int(x / worldSize * cells)
	j := int(y / worldSize * cells)
	i = min(max(i, 0), cells-1)
	j = min(max(j, 0), cells-1)
	return j*cells + i
}

// updateCell applies cohesion/alignment/separation against boids within
// the radius, reading own and neighbor cells and writing its own boids in
// place — the read/write overlap the coloring serializes.
func updateCell(cur []boid, cellBoids [][]int, cell int) {
	ci, cj := cell%cells, cell/cells
	for _, bi := range cellBoids[cell] {
		b := cur[bi]
		var cx, cy, ax, ay, sx, sy float64
		n := 0
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				ni, nj := ci+di, cj+dj
				if ni < 0 || ni >= cells || nj < 0 || nj >= cells {
					continue
				}
				for _, oi := range cellBoids[nj*cells+ni] {
					if oi == bi {
						continue
					}
					o := cur[oi]
					dx, dy := o.x-b.x, o.y-b.y
					if d := math.Hypot(dx, dy); d < radius && d > 0 {
						cx += o.x
						cy += o.y
						ax += o.vx
						ay += o.vy
						sx -= dx / d
						sy -= dy / d
						n++
					}
				}
			}
		}
		if n > 0 {
			fn := float64(n)
			b.vx += 0.01*(cx/fn-b.x) + 0.05*(ax/fn-b.vx) + 0.05*sx
			b.vy += 0.01*(cy/fn-b.y) + 0.05*(ay/fn-b.vy) + 0.05*sy
		}
		if sp := math.Hypot(b.vx, b.vy); sp > 2 {
			b.vx, b.vy = b.vx/sp*2, b.vy/sp*2
		}
		b.x = math.Mod(b.x+b.vx+worldSize, worldSize)
		b.y = math.Mod(b.y+b.vy+worldSize, worldSize)
		cur[bi] = b
	}
}

// runDAG executes the task DAG on a goroutine pool, releasing each task
// when its lower-colored neighbors finish (the same executor pattern the
// STKDE application uses).
func runDAG(d *stencilivc.DAG, workers int, task func(int)) {
	n := d.Len()
	tasks := make(chan int)
	doneCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range tasks {
				task(t)
				doneCh <- t
			}
		}()
	}
	indeg := append([]int32{}, d.Preds...)
	ready := &intHeap{prio: d.Priority}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			heap.Push(ready, v)
		}
	}
	outstanding, finished := 0, 0
	for finished < n {
		for ready.Len() > 0 && outstanding < workers {
			tasks <- heap.Pop(ready).(int)
			outstanding++
		}
		t := <-doneCh
		outstanding--
		finished++
		for _, u := range d.Succs[t] {
			indeg[u]--
			if indeg[u] == 0 {
				heap.Push(ready, int(u))
			}
		}
	}
	close(tasks)
	wg.Wait()
}

type intHeap struct {
	prio  []int64
	items []int
}

func (h *intHeap) Len() int { return len(h.items) }
func (h *intHeap) Less(a, b int) bool {
	va, vb := h.items[a], h.items[b]
	if h.prio[va] != h.prio[vb] {
		return h.prio[va] < h.prio[vb]
	}
	return va < vb
}
func (h *intHeap) Swap(a, b int) { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *intHeap) Push(x any)    { h.items = append(h.items, x.(int)) }
func (h *intHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}
