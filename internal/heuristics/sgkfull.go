package heuristics

import (
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// SmartLargestCliqueFirst3DFull is the SGK variant the paper describes
// but rejected as too slow (Section V-A): for every K8 block, try every
// permutation of its still-uncolored vertices (up to 8! = 40320 per
// block) and commit the one minimizing the block's local maxcolor.
// Exposed for the ablation benchmarks that quantify how much quality the
// paper's weight-sorted shortcut (SmartLargestCliqueFirst3D) gives up —
// on real instances most blocks have few uncolored vertices, so the
// factorial blowup concentrates on the first blocks visited.
func SmartLargestCliqueFirst3DFull(g *grid.Grid3D) core.Coloring {
	return mustBlocks(smartBlocksPermuted(g, g.CliqueBlocks(), nil))
}
