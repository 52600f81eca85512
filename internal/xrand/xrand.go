// Package xrand provides small, fast, deterministic pseudo-random number
// generators used by the dataset generators and tests.
//
// The experiments in the paper depend on reproducible datasets (the same
// sortedness/density quadrant must be regenerated identically across runs and
// machines), so we implement the generators ourselves rather than depend on
// the unspecified stream of math/rand: splitmix64 for seeding and xoshiro256**
// for bulk generation. Both are public-domain algorithms by Blackman and
// Vigna.
package xrand

import "math"

// SplitMix64 is a 64-bit generator with a single word of state. It is
// primarily used to seed Rand and to derive independent substreams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro256** must not be seeded with the all-zero state; splitmix64
	// output makes that astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Uint64n returns a uniformly distributed value in [0, n). It panics if n is
// zero. Uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Unbiased bounded generation via rejection sampling on the top bits.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Uint32n returns a uniformly distributed value in [0, n). It panics if n is
// zero.
func (r *Rand) Uint32n(n uint32) uint32 {
	return uint32(r.Uint64n(uint64(n)))
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm fills out with a uniformly random permutation of 0..len(out)-1 using
// the inside-out Fisher-Yates shuffle.
func (r *Rand) Perm(out []int) {
	for i := range out {
		j := int(r.Uint64n(uint64(i + 1)))
		out[i] = out[j]
		out[j] = i
	}
}

// ShuffleUint32 permutes xs uniformly at random (Fisher-Yates).
func (r *Rand) ShuffleUint32(xs []uint32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Zipf draws values in [0, n) following a Zipf distribution with exponent s
// (s > 1 is a classic skew, s = 0 degenerates to uniform). It precomputes the
// CDF once; use for modest n (the group-count ranges in the experiments).
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next Zipf-distributed value.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(z.cdf) {
		lo--
	}
	return lo
}
