package grid

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestNewGrid2DOverflowEdges: construction rejects every dimension
// combination near the math.MaxInt edge with an error — never a wrapped
// product, a panic, or a corrupt grid.
func TestNewGrid2DOverflowEdges(t *testing.T) {
	for _, tc := range [][2]int{
		{math.MaxInt, 1},
		{1, math.MaxInt},
		{math.MaxInt, math.MaxInt},
		{math.MaxInt/2 + 1, 2}, // product wraps exactly past MaxInt
		{1 << 30, 1 << 34},
		{3_037_000_500, 3_037_000_500}, // ~sqrt(MaxInt64) each
	} {
		g, err := NewGrid2D(tc[0], tc[1])
		if err == nil {
			t.Errorf("NewGrid2D(%d, %d) accepted; len(W)=%d", tc[0], tc[1], len(g.W))
		}
	}
	// The largest accepted shape still works.
	g, err := NewGrid2D(1<<14, 1<<14)
	if err != nil {
		t.Fatalf("NewGrid2D(2^14, 2^14): %v", err)
	}
	if len(g.W) != 1<<28 {
		t.Errorf("len(W) = %d, want 2^28", len(g.W))
	}
}

// TestNewGrid3DOverflowEdges is the 3D analogue.
func TestNewGrid3DOverflowEdges(t *testing.T) {
	for _, tc := range [][3]int{
		{math.MaxInt, 1, 1},
		{1, math.MaxInt, 1},
		{1, 1, math.MaxInt},
		{math.MaxInt, math.MaxInt, math.MaxInt},
		{1 << 16, 1 << 16, 1 << 16}, // inside axis caps, product too large
		{1 << 21, 1 << 21, 1 << 21}, // product wraps past MaxInt
	} {
		g, err := NewGrid3D(tc[0], tc[1], tc[2])
		if err == nil {
			t.Errorf("NewGrid3D(%d, %d, %d) accepted; len(W)=%d", tc[0], tc[1], tc[2], len(g.W))
		}
	}
	if _, err := NewGrid3D(512, 512, 512); err != nil {
		t.Fatalf("NewGrid3D(512^3): %v", err)
	}
}

// TestCheckedCells: the helper detects the exact wrap boundary.
func TestCheckedCells(t *testing.T) {
	if _, err := checkedCells(math.MaxInt, 1); err != nil {
		t.Errorf("MaxInt*1 rejected: %v", err)
	}
	if _, err := checkedCells(math.MaxInt, 2); err == nil {
		t.Error("MaxInt*2 accepted")
	}
	if n, err := checkedCells(math.MaxInt/3, 3); err != nil || n != math.MaxInt/3*3 {
		t.Errorf("(MaxInt/3)*3 = %d, %v", n, err)
	}
}

// TestFromWeightsTotalOverflow: weight sets whose sum would wrap int64
// are rejected so solver interval ends stay representable.
func TestFromWeightsTotalOverflow(t *testing.T) {
	if _, err := FromWeights2D(2, 1, []int64{math.MaxInt64, 1}); err == nil {
		t.Error("2D total-weight overflow accepted")
	}
	if _, err := FromWeights2D(2, 1, []int64{math.MaxInt64 - 1, 1}); err != nil {
		t.Errorf("2D total exactly MaxInt64 rejected: %v", err)
	}
	if _, err := FromWeights3D(1, 1, 2, []int64{math.MaxInt64, 1}); err == nil {
		t.Error("3D total-weight overflow accepted")
	}
	if _, err := FromWeights3D(1, 1, 2, []int64{math.MaxInt64 - 1, 1}); err != nil {
		t.Errorf("3D total exactly MaxInt64 rejected: %v", err)
	}
}

// TestSetWeightTotalOverflow: Set panics exactly when the grid's real
// total would overflow int64 — the same boundary the constructors
// enforce — and never on a large weight the running total still absorbs.
func TestSetWeightTotalOverflow(t *testing.T) {
	g := MustGrid2D(2, 2)
	// One huge cell among zeros is legal via FromWeights2D, so Set must
	// accept it too (the old per-cell cap of MaxInt64/len(W) did not).
	g.Set(0, 0, math.MaxInt64-1)
	g.Set(0, 1, 1) // total exactly MaxInt64: boundary accepted
	mustPanic(t, "2D Set past total", func() { g.Set(1, 0, 1) })
	// Replacing a weight frees budget for another cell.
	g.Set(0, 0, 0)
	g.Set(1, 0, math.MaxInt64-1)

	g3 := MustGrid3D(2, 2, 2)
	g3.Set(0, 0, 0, math.MaxInt64)
	mustPanic(t, "3D Set past total", func() { g3.Set(1, 1, 1, 1) })
	g3.Set(0, 0, 0, 7)
	g3.Set(1, 1, 1, math.MaxInt64-7)
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestOversizedClaimsRejectedBeforeAllocating: dimensions at the
// accepted maximum with no weights behind them are rejected before the
// grid, or Read's weight buffer, is sized from the claim. Each of these
// inputs is a few dozen bytes of a request body.
func TestOversizedClaimsRejectedBeforeAllocating(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parse func() error
	}{
		{"FromWeights2D 16384x16384", func() error {
			_, err := FromWeights2D(1<<14, 1<<14, nil)
			return err
		}},
		{"FromWeights3D 512x512x512", func() error {
			_, err := FromWeights3D(512, 512, 512, nil)
			return err
		}},
		{"Read ivc2d 16384 16384", func() error {
			_, _, err := Read(strings.NewReader("ivc2d 16384 16384\n"))
			return err
		}},
		{"Read ivc3d 512 512 512", func() error {
			_, _, err := Read(strings.NewReader("ivc3d 512 512 512\n"))
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := tc.parse()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted with no weights", tc.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before rejecting, want < 1 MiB", tc.name, d)
		}
	}
}
