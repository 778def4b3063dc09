package sim

import (
	"math/bits"
	"math/rand"
)

// boundedDraw draws from [0, n) for one fixed n, returning exactly what
// (*rand.Rand).Int63n(n) returns from the same source, value for value and
// draw for draw. Int63n pays two 64-bit divisions per call: one for its
// rejection bound and one for the final remainder. boundedDraw computes the
// bound once, and the remainder by a multiply with a precomputed reciprocal.
type boundedDraw struct {
	n     uint64
	bound uint64 // largest accepted Int63 value; 0 when n is a power of two
	recip uint64 // floor((2^64-1)/n)
}

// newBoundedDraw returns the draw for n; like Int63n it panics if n <= 0.
func newBoundedDraw(n int64) boundedDraw {
	if n <= 0 {
		panic("sim: bounded draw over an empty range")
	}
	d := boundedDraw{n: uint64(n), recip: ^uint64(0) / uint64(n)}
	if n&(n-1) != 0 {
		d.bound = 1<<63 - 1 - (1<<63)%uint64(n)
	}
	return d
}

// draw returns the next value in [0, n) from r.
func (d *boundedDraw) draw(r *rand.Rand) int64 {
	if d.bound == 0 { // Int63n masks a power of two
		return r.Int63() & int64(d.n-1)
	}
	v := uint64(r.Int63())
	for v > d.bound {
		v = uint64(r.Int63())
	}
	// recip*n >= 2^64 - n, so the estimated quotient q is v/n or one less,
	// and one conditional subtraction finishes the remainder.
	q, _ := bits.Mul64(v, d.recip)
	rem := v - q*d.n
	if rem >= d.n {
		rem -= d.n
	}
	return int64(rem)
}
