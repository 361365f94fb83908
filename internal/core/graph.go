package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Graph is the minimal view of a weighted undirected graph needed by the
// coloring algorithms. Implementations must be safe for concurrent reads.
//
// Neighbors appends the neighbors of v to buf and returns the extended
// slice; callers pass buf[:0] of a reusable slice to avoid allocation.
// Implicit graphs (stencils) synthesize the list from coordinates, so no
// adjacency is ever stored for the grid cases.
type Graph interface {
	// Len returns the number of vertices. Vertices are 0..Len()-1.
	Len() int
	// Weight returns the (non-negative) weight of vertex v.
	Weight(v int) int64
	// Neighbors appends the neighbors of v to buf and returns it.
	Neighbors(v int, buf []int) []int
}

// MaxFixedDegree is the largest degree of a Lattice vertex: 26, that of
// an interior 27-pt stencil vertex (the 9-pt stencil's 8 fits inside
// the same bound). It sizes the placement kernel's fixed neighbor,
// offset and occupancy arrays.
const MaxFixedDegree = 26

// Lattice is implemented by the stencil grids: a Graph whose vertices
// are the cells of an x×y×z box with x-fastest ids, (k*y+j)*x+i, two
// cells adjacent iff every coordinate differs by at most one, and whose
// weights live in one flat slice. A kernel bound to a Lattice reads
// weights from that slice and takes an interior vertex's neighbors from
// a fixed offset table, with no interface call per neighbor; boundary
// vertices still go through Neighbors.
type Lattice interface {
	Graph
	// Lattice returns the weight slice, indexed by vertex id, and the
	// extents x, y, z, with z = 1 for a 9-pt grid. FitScratch only
	// reads the slice, and binds it once per solve, as it binds the
	// uniform-weight verdict.
	Lattice() (w []int64, x, y, z int)
}

// DegreeGraph is an optional interface for graphs that can answer vertex
// degrees in O(1) without materializing a neighbor list (CSR offset
// difference, stencil coordinate arithmetic).
type DegreeGraph interface {
	Degree(v int) int
}

// Degree returns the number of neighbors of v. Graphs implementing
// DegreeGraph answer in O(1); the fallback materializes the neighbor
// list (and allocates), so implementing DegreeGraph is strongly
// preferred for anything used in a loop.
func Degree(g Graph, v int) int {
	if dg, ok := g.(DegreeGraph); ok {
		return dg.Degree(v)
	}
	return len(g.Neighbors(v, nil))
}

// TotalWeight returns the sum of all vertex weights.
func TotalWeight(g Graph) int64 {
	var sum int64
	for v := 0; v < g.Len(); v++ {
		sum += g.Weight(v)
	}
	return sum
}

// MaxWeight returns the largest vertex weight (0 for an empty graph).
func MaxWeight(g Graph) int64 {
	var mw int64
	for v := 0; v < g.Len(); v++ {
		mw = max(mw, g.Weight(v))
	}
	return mw
}

// CountEdges returns the number of undirected edges of g.
func CountEdges(g Graph) int {
	var buf []int
	edges := 0
	for v := 0; v < g.Len(); v++ {
		buf = g.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u > v {
				edges++
			}
		}
	}
	return edges
}

// CSRGraph is a general weighted graph in compressed sparse row form.
// It implements Graph and is used for the non-stencil structures of the
// paper: chains, cycles, cliques, bipartite graphs, and arbitrary test
// graphs.
type CSRGraph struct {
	offsets []int32
	adj     []int32
	weights []int64
	// total caches the weight sum, maintained by SetWeight, so the
	// construction-time no-overflow guarantee (Σw fits in int64, hence
	// every start+w a solver can produce does too) survives mutation.
	total int64
	// uniform caches the uniform-weight verdict that routes placements
	// onto the packed free-map kernel: > 0 is the common weight, -1 is
	// "not uniform", 0 is "dirty, recompute". It is sound to cache here
	// because the weight slice is private and SetWeight (which marks it
	// dirty) is the only mutation path. Accessed atomically so
	// concurrent readers can share one lazy recomputation.
	uniform int64
}

// UniformWeight reports whether every vertex has the same positive
// weight (core.UniformWeighter): the verdict that lets placements take
// the packed free-map kernel. The answer is cached — computed at
// construction, invalidated by SetWeight, and lazily recomputed here —
// so steady-state calls are one atomic load.
func (g *CSRGraph) UniformWeight() (int64, bool) {
	u := atomic.LoadInt64(&g.uniform)
	if u == 0 {
		u = -1
		if w, ok := ScanUniformWeight(g); ok {
			u = w
		}
		atomic.StoreInt64(&g.uniform, u)
	}
	if u > 0 {
		return u, true
	}
	return 0, false
}

var _ UniformWeighter = (*CSRGraph)(nil)

var _ Graph = (*CSRGraph)(nil)

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// NewCSRGraph builds a CSR graph from vertex weights and an undirected
// edge list. Self loops and duplicate edges are rejected: a self loop on a
// positive-weight vertex makes the instance infeasible, and duplicates
// would silently skew degree-based heuristics.
//
// Construction is overflow-safe: vertex and edge counts that do not fit
// the int32 CSR index type, and weight sets whose total overflows
// int64, are rejected with errors instead of silently corrupting
// offsets. The total-weight bound is what guarantees that every
// interval end (start + w) a solver can produce stays representable:
// greedy starts never exceed the weight sum.
func NewCSRGraph(weights []int64, edges []Edge) (*CSRGraph, error) {
	n := len(weights)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d vertices overflow the CSR int32 index type", n)
	}
	if len(edges) > (math.MaxInt32-1)/2 {
		return nil, fmt.Errorf("core: %d edges overflow the CSR int32 offset type", len(edges))
	}
	var total int64
	uniform := int64(-1)
	if n > 0 && weights[0] > 0 {
		uniform = weights[0]
	}
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("core: negative weight %d", w)
		}
		if total > math.MaxInt64-w {
			return nil, fmt.Errorf("core: total weight overflows int64 (interval ends would wrap)")
		}
		total += w
		if w != uniform {
			uniform = -1
		}
	}
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("core: self loop on vertex %d", e.U)
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[n])
	fill := make([]int32, n)
	copy(fill, offsets[:n])
	for _, e := range edges {
		adj[fill[e.U]] = int32(e.V)
		fill[e.U]++
		adj[fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	// Sort each adjacency run and detect duplicates.
	for v := 0; v < n; v++ {
		run := adj[offsets[v]:offsets[v+1]]
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		for i := 1; i < len(run); i++ {
			if run[i] == run[i-1] {
				return nil, fmt.Errorf("core: duplicate edge (%d,%d)", v, run[i])
			}
		}
	}
	w := make([]int64, n)
	copy(w, weights)
	return &CSRGraph{offsets: offsets, adj: adj, weights: w, total: total, uniform: uniform}, nil
}

// MustCSRGraph is NewCSRGraph that panics on error; for tests and
// literals whose validity is static.
func MustCSRGraph(weights []int64, edges []Edge) *CSRGraph {
	g, err := NewCSRGraph(weights, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the number of vertices.
func (g *CSRGraph) Len() int { return len(g.weights) }

// Weight returns the weight of vertex v.
func (g *CSRGraph) Weight(v int) int64 { return g.weights[v] }

// SetWeight replaces the weight of vertex v. Like construction it
// rejects (by panicking, as for negative weights) updates that would
// push the graph's total weight past int64, preserving the invariant
// that no solver-produced interval end can overflow.
func (g *CSRGraph) SetWeight(v int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("core: negative weight %d", w))
	}
	rest := g.total - g.weights[v]
	if rest > math.MaxInt64-w {
		panic(fmt.Sprintf("core: weight %d overflows the graph's total weight", w))
	}
	g.total = rest + w
	g.weights[v] = w
	atomic.StoreInt64(&g.uniform, 0) // uniform verdict: dirty, recompute lazily
}

// Neighbors appends the neighbors of v to buf and returns it.
func (g *CSRGraph) Neighbors(v int, buf []int) []int {
	for _, u := range g.adj[g.offsets[v]:g.offsets[v+1]] {
		buf = append(buf, int(u))
	}
	return buf
}

// Degree returns the degree of v in O(1) from the CSR offsets.
func (g *CSRGraph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

var _ DegreeGraph = (*CSRGraph)(nil)

// Chain returns the path graph v0 - v1 - ... - v_{n-1} with the given
// weights (the 1×N stencil degenerate case, Section II of the paper).
func Chain(weights []int64) *CSRGraph {
	edges := make([]Edge, 0, max(0, len(weights)-1))
	for i := 0; i+1 < len(weights); i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return MustCSRGraph(weights, edges)
}

// Cycle returns the cycle graph on len(weights) >= 3 vertices where vertex
// i neighbors i±1 mod n, as in Section III-C of the paper.
func Cycle(weights []int64) (*CSRGraph, error) {
	n := len(weights)
	if n < 3 {
		return nil, fmt.Errorf("core: cycle needs >= 3 vertices, got %d", n)
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{i, (i + 1) % n})
	}
	return NewCSRGraph(weights, edges)
}

// Clique returns the complete graph on the given weights (Section III-A).
func Clique(weights []int64) *CSRGraph {
	n := len(weights)
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return MustCSRGraph(weights, edges)
}

// CompleteBipartite returns K_{|a|,|b|}: part A holds vertices 0..len(a)-1
// with weights a, part B holds the rest with weights b.
func CompleteBipartite(a, b []int64) *CSRGraph {
	weights := append(append([]int64{}, a...), b...)
	edges := make([]Edge, 0, len(a)*len(b))
	for i := range a {
		for j := range b {
			edges = append(edges, Edge{i, len(a) + j})
		}
	}
	return MustCSRGraph(weights, edges)
}

// InducedSubgraph returns the subgraph of g induced by keep (a vertex
// subset given as original ids) together with the mapping from new vertex
// ids to original ids. Vertices are renumbered 0..len(keep)-1 following
// the order of keep. Duplicate ids in keep are rejected.
func InducedSubgraph(g Graph, keep []int) (*CSRGraph, []int, error) {
	remap := make(map[int]int, len(keep))
	for newID, old := range keep {
		if _, dup := remap[old]; dup {
			return nil, nil, fmt.Errorf("core: duplicate vertex %d in subset", old)
		}
		if old < 0 || old >= g.Len() {
			return nil, nil, fmt.Errorf("core: vertex %d out of range", old)
		}
		remap[old] = newID
	}
	weights := make([]int64, len(keep))
	var edges []Edge
	var buf []int
	for newID, old := range keep {
		weights[newID] = g.Weight(old)
		buf = g.Neighbors(old, buf[:0])
		for _, u := range buf {
			if nu, ok := remap[u]; ok && nu > newID {
				edges = append(edges, Edge{newID, nu})
			}
		}
	}
	sub, err := NewCSRGraph(weights, edges)
	if err != nil {
		return nil, nil, err
	}
	orig := append([]int{}, keep...)
	return sub, orig, nil
}
