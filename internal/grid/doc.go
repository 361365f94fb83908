// Package grid provides the stencil graphs studied by the paper: the 9-pt
// 2D stencil (Grid2D, Section II) and the 27-pt 3D stencil (Grid3D), along
// with their 5-pt/7-pt relaxations, Z-order (Morton) traversals, the
// compact K4/K8 clique cover used by the block-based heuristics and lower
// bounds (Sections III and V-A), and the cache-sized tilings the parallel
// solver partitions a grid into.
//
// The key invariant is implicit adjacency: both grid types implement
// core.Graph by synthesizing neighbor lists from coordinates — vertices
// (i,j) and (i',j') of the 9-pt stencil are adjacent iff their coordinates
// differ by at most 1 in every axis (likewise per-axis for the 27-pt
// stencil) — so a grid stores only its weight array, ids are row-major
// (id = j*X + i, layers stacked in 3D), and the degree never exceeds
// core.MaxFixedDegree = 26. Both grids are core.Lattice views (weight
// slice plus extents): the placement kernel binds the slice once per
// solve, takes an interior vertex's neighbors from a fixed offset table
// and a boundary vertex's from Neighbors, the grid's one neighbor
// enumeration, and so runs allocation-free.
//
// A 9-pt grid is the 27-pt stencil one layer deep, and one unexported
// lattice type implements both: Grid2D embeds it with Z = 1, Grid3D
// with any Z. Adjacency, degree, the axis relaxation, the line and
// Morton orders, the clique cover, tilings and the text writer each
// have one body; the grid types add only their dimension (Dims), cell
// addressing in two or three coordinates (ID, Coords, At, Set), Clone,
// String and, for Grid3D, Layer. Extents are fixed at construction and
// read through X, Y and Z, and a cell outside them panics in ID, At and
// Set.
//
// A grid owns its weights. One unexported store holds the slice and its
// running total for both grid types; Set and the constructors are the
// only writers, each keeping the total exact and refusing any weight set
// whose total overflows int64, so every interval end a solver computes
// fits. Weight and At read one weight, Lattice returns the slice for
// reading, and Clone and Layer return independent copies.
package grid
