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
package grid
