package heuristics

import (
	"math/rand"
	"testing"

	"stencilivc/internal/bounds"
)

func TestLayeredBDP3DValid(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 15; trial++ {
		g := random3D(rng, 2+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4), 12)
		c := mustRun(t, BDL, g)
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
		if c.MaxColor(g) < bounds.MaxK8(g) {
			t.Fatal("below the K8 bound")
		}
	}
}

func TestLayeredBDP3DNeverWorseThanBD(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	wins := 0
	for trial := 0; trial < 20; trial++ {
		g := random3D(rng, 3+rng.Intn(4), 3+rng.Intn(4), 3+rng.Intn(4), 15)
		bd, layered := mustRun(t, BD, g), mustRun(t, BDL, g)
		if layered.MaxColor(g) > bd.MaxColor(g) {
			t.Fatalf("layered BDP %d worse than BD %d", layered.MaxColor(g), bd.MaxColor(g))
		}
		if layered.MaxColor(g) < bd.MaxColor(g) {
			wins++
		}
	}
	if wins == 0 {
		t.Error("layered BDP never improved on BD across 20 instances")
	}
}

func TestLayeredBDP3DDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, shape := range [][3]int{{1, 1, 1}, {1, 4, 4}, {4, 1, 4}, {4, 4, 1}, {1, 1, 5}} {
		g := random3D(rng, shape[0], shape[1], shape[2], 9)
		c := mustRun(t, BDL, g)
		if err := c.Validate(g); err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
	}
}

func TestBDLRunsViaRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := random3D(rng, 3, 3, 3, 9)
	c, err := Run(BDL, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	// BDL is 3D-only: the 2D registry must reject it.
	g2 := random2D(rng, 3, 3, 9)
	if _, err := Run(BDL, g2, nil); err == nil {
		t.Error("BDL accepted in 2D")
	}
}
