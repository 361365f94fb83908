package core

import (
	"math"
	"testing"
)

// TestDivisorMatchesDivide pins Divisor.Div against the divide for
// every divisor 1–4096 and a few large ones on both sides of 2^32, on
// the dividends next to multiples of d (where a quotient one too high
// or low would show), on both sides of 2^32 and at int64's end.
func TestDivisorMatchesDivide(t *testing.T) {
	var ds []uint64
	for d := uint64(1); d <= 4096; d++ {
		ds = append(ds, d)
	}
	ds = append(ds, 65535, 65536, 1<<20+1, 1<<31-1, 1<<31, 1<<32-1, 1<<32, 1<<32+1, 1<<40+3, math.MaxInt64)
	for _, d := range ds {
		q := NewDivisor(int64(d))
		ns := []uint64{0, d - 1, d, d + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, math.MaxInt64}
		for _, k := range []uint64{2, 3, 7, 1000, (1<<32 - 1) / d} {
			if k*d/d == k { // skip products past uint64
				ns = append(ns, k*d-1, k*d, k*d+1)
			}
		}
		for _, n := range ns {
			if got, want := q.Div(n), n/d; got != want {
				t.Fatalf("NewDivisor(%d).Div(%d) = %d, want %d", d, n, got, want)
			}
		}
	}
}

// TestSlotOf pins the uniform rung's slot conversion against the divide
// and the remainder, on weights whose reciprocal multiplies (w ≥ 2) and
// on w = 1, whose reciprocal would overflow to 0, with starts below, at
// and past 2^32, multiples of w and not.
func TestSlotOf(t *testing.T) {
	for _, w := range []int64{1, 2, 3, 5, 60, 1<<20 + 1} {
		q := NewDivisor(w)
		var starts []int64
		for _, base := range []int64{0, 7 * w, (1 << 32) / w * w, 1 << 32, (1<<32)/w*w + w, 1 << 40 / w * w, math.MaxInt64 / w * w} {
			starts = append(starts, base, base+1, base+w-1, base+w)
			if base > 0 {
				starts = append(starts, base-1)
			}
		}
		for _, start := range starts {
			if start < 0 {
				continue
			}
			slot, ok := slotOf(start, q)
			if wantOK := start%w == 0; ok != wantOK || ok && slot != start/w {
				t.Errorf("slotOf(%d, w=%d) = (%d, %v), want (%d, %v)", start, w, slot, ok, start/w, wantOK)
			}
		}
	}
}
