package grid

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteRead2DRoundTrip(t *testing.T) {
	g := MustGrid2D(3, 2)
	for v := 0; v < g.Len(); v++ {
		g.W[v] = int64(v * 10)
	}
	var buf bytes.Buffer
	if err := Write2D(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, g3, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g3 != nil {
		t.Fatal("Read returned a 3D grid")
	}
	if g2.X != 3 || g2.Y != 2 {
		t.Fatalf("dims %dx%d", g2.X, g2.Y)
	}
	for v := 0; v < g.Len(); v++ {
		if g2.W[v] != g.W[v] {
			t.Fatalf("weight[%d] = %d, want %d", v, g2.W[v], g.W[v])
		}
	}
}

func TestWriteRead3DRoundTrip(t *testing.T) {
	g := MustGrid3D(2, 3, 2)
	for v := 0; v < g.Len(); v++ {
		g.W[v] = int64(v)
	}
	var buf bytes.Buffer
	if err := Write3D(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, g3, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != nil {
		t.Fatal("Read returned a 2D grid")
	}
	if g3.X != 2 || g3.Y != 3 || g3.Z != 2 {
		t.Fatalf("dims %dx%dx%d", g3.X, g3.Y, g3.Z)
	}
	for v := 0; v < g.Len(); v++ {
		if g3.W[v] != g.W[v] {
			t.Fatalf("weight[%d] = %d, want %d", v, g3.W[v], g.W[v])
		}
	}
}

func TestReadCommentsAndWhitespace(t *testing.T) {
	in := `# instance with comments
ivc2d 2 2
1 2  # trailing comment

3
4
`
	g2, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g2.At(1, 1) != 4 || g2.At(0, 1) != 3 {
		t.Errorf("weights parsed wrong: %v", g2.W)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"bogus 2 2\n1 2 3 4",   // bad header
		"ivc2d 2\n1 2",         // missing dim
		"ivc2d a b\n",          // non-numeric dims
		"ivc2d 2 2\n1 2 3",     // too few weights
		"ivc2d 2 2\n1 2 3 4 5", // too many weights on one line
		"ivc2d 2 2\n1 2 3 x",   // bad weight token
		"ivc2d 2 2\n1 2 3 -4",  // negative weight
		"ivc3d 2 2\n1 2 3 4",   // 3d header with 2 dims
		"ivc3d 1 1 1\n",        // missing weight
		"ivc2d 2 1\n9223372036854775807 9223372036854775807\n",   // total overflows int64
		"ivc3d 1 1 2\n9223372036854775807 9223372036854775807\n", // total overflows int64
	}
	for i, in := range cases {
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}
