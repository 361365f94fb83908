package grid

import (
	"testing"
)

func TestGrid3DDimensions(t *testing.T) {
	if _, err := NewGrid3D(0, 1, 1); err == nil {
		t.Error("0-dim grid accepted")
	}
	g, err := NewGrid3D(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 60 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGrid3DIDRoundTrip(t *testing.T) {
	g := MustGrid3D(3, 4, 5)
	for k := 0; k < 5; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 3; i++ {
				gi, gj, gk := g.Coords(g.ID(i, j, k))
				if gi != i || gj != j || gk != k {
					t.Fatalf("Coords(ID(%d,%d,%d)) = (%d,%d,%d)", i, j, k, gi, gj, gk)
				}
			}
		}
	}
}

func TestGrid3DNeighborCounts(t *testing.T) {
	g := MustGrid3D(3, 3, 3)
	if d := len(g.Neighbors(g.ID(1, 1, 1), nil)); d != 26 {
		t.Errorf("center degree = %d, want 26", d)
	}
	if d := len(g.Neighbors(g.ID(0, 0, 0), nil)); d != 7 {
		t.Errorf("corner degree = %d, want 7", d)
	}
	if d := len(g.Neighbors(g.ID(1, 0, 0), nil)); d != 11 {
		t.Errorf("edge degree = %d, want 11", d)
	}
	if d := len(g.Neighbors(g.ID(1, 1, 0), nil)); d != 17 {
		t.Errorf("face degree = %d, want 17", d)
	}
}

func TestGrid3DAdjacencyDefinition(t *testing.T) {
	g := MustGrid3D(3, 2, 4)
	for v := 0; v < g.Len(); v++ {
		i, j, k := g.Coords(v)
		nbrs := map[int]bool{}
		for _, u := range g.Neighbors(v, nil) {
			nbrs[u] = true
		}
		for u := 0; u < g.Len(); u++ {
			ui, uj, uk := g.Coords(u)
			want := u != v && abs(ui-i) <= 1 && abs(uj-j) <= 1 && abs(uk-k) <= 1
			if nbrs[u] != want {
				t.Fatalf("adjacency(%d,%d) = %v, want %v", v, u, nbrs[u], want)
			}
		}
	}
}

func TestSevenPtBipartite(t *testing.T) {
	g := MustGrid3D(3, 3, 3)
	s := SevenPt{G: g}
	var buf []int
	for v := 0; v < s.Len(); v++ {
		buf = s.Neighbors(v, buf[:0])
		for _, u := range buf {
			if s.Parity(u) == s.Parity(v) {
				t.Fatalf("7-pt edge (%d,%d) within one parity class", v, u)
			}
		}
	}
	if d := len(s.Neighbors(g.ID(1, 1, 1), nil)); d != 6 {
		t.Errorf("7-pt center degree = %d, want 6", d)
	}
}

// TestGrid3DLayerIsCopy: Layer(k) is an independent grid holding a copy
// of layer k's weights and their total, so a Set on the layer leaves
// the parent's weights and total unchanged, and the other way round.
func TestGrid3DLayerIsCopy(t *testing.T) {
	g := MustGrid3D(2, 2, 3)
	g.Set(1, 1, 2, 9)
	g.Set(1, 1, 0, 4)
	layer := g.Layer(2)
	if layer.At(1, 1) != 9 || layer.total != 9 {
		t.Errorf("Layer(2): At(1,1) = %d, total %d; want 9 and 9", layer.At(1, 1), layer.total)
	}
	layer.Set(0, 0, 5)
	if g.At(0, 0, 2) != 0 || g.total != 13 {
		t.Errorf("Set on Layer(2) reached the parent: At(0,0,2) = %d, total %d; want 0 and 13",
			g.At(0, 0, 2), g.total)
	}
	if layer.total != 14 {
		t.Errorf("layer total = %d after Set, want 14", layer.total)
	}
	g.Set(1, 0, 2, 6)
	if layer.At(1, 0) != 0 || layer.total != 14 {
		t.Errorf("Set on the parent reached Layer(2): At(1,0) = %d, total %d", layer.At(1, 0), layer.total)
	}
}

func TestGrid3DCloneAndFromWeights(t *testing.T) {
	g, err := FromWeights3D(2, 1, 2, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.At(1, 0, 1) != 4 {
		t.Errorf("At(1,0,1) = %d", g.At(1, 0, 1))
	}
	c := g.Clone()
	c.Set(0, 0, 0, 7)
	if g.At(0, 0, 0) != 1 {
		t.Error("Clone aliases original")
	}
	if _, err := FromWeights3D(2, 2, 2, []int64{1}); err == nil {
		t.Error("short weights accepted")
	}
}
