package core

import "math/bits"

// Divisor divides by a fixed positive d with a multiply instead of a
// divide. A dividend n below 2^32 takes the high word of n·m, with
// m = ⌈2^64/d⌉; the product overshoots n/d by less than n/2^64, which
// stays under the 1/d a floor can absorb while n·d < 2^64, so the
// quotient is exact for every n and d below 2^32. Other dividends take
// the divide, and so does every dividend when d = 1, whose m is 2^64
// and overflows, or when d ≥ 2^32.
//
// The kernel binds one per lattice axis and one for the uniform weight,
// and grid.Cover one per block axis, so the ids and starts they split
// never reach the divider.
type Divisor struct {
	d, m uint64
	// lim is 2^32 when m is usable and 0 otherwise: a dividend below
	// lim multiplies.
	lim uint64
}

// NewDivisor returns the Divisor for d, which must be positive.
func NewDivisor(d int64) Divisor {
	q := Divisor{d: uint64(d)}
	if d >= 2 && d < 1<<32 {
		q.m = ^uint64(0)/q.d + 1
		q.lim = 1 << 32
	}
	return q
}

// Div returns ⌊n/d⌋.
func (q Divisor) Div(n uint64) uint64 {
	if n < q.lim {
		hi, _ := bits.Mul64(n, q.m)
		return hi
	}
	return n / q.d
}
