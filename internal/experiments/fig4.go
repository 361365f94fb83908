package experiments

import (
	"fmt"
	"strings"

	"stencilivc/internal/datasets"
)

// Fig4 renders each dataset's xy-projection as an ASCII density heat map
// at the largest grid the dataset's smallest bandwidth allows — the
// analogue of the paper's Figure 4 scatter plots.
func Fig4(seed int64) (map[datasets.Name]string, error) {
	glyphs := []byte(" .:-=+*#%@")
	out := map[datasets.Name]string{}
	for _, name := range datasets.Names() {
		ds, err := datasets.Generate(name, seed)
		if err != nil {
			return nil, err
		}
		minBW := ds.Bandwidths[0]
		for _, bw := range ds.Bandwidths {
			minBW = min(minBW, bw)
		}
		n := int(1 / (2 * minBW))
		n = min(max(n, 8), 48)
		g, err := datasets.Voxelize2D(ds.Points, ds.Bounds, datasets.XY, n, n/2)
		if err != nil {
			return nil, err
		}
		var maxW int64 = 1
		for v := range g.Len() {
			maxW = max(maxW, g.Weight(v))
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s (%d events, %dx%d)\n", name, len(ds.Points), g.X(), g.Y())
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
		out[name] = b.String()
	}
	return out, nil
}
