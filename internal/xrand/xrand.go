// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Every stochastic element of the simulation (counter-posting jitter, OS
// background noise, Monte Carlo sampling) draws from an xrand.Source seeded
// explicitly, so whole-system runs are reproducible bit-for-bit. The
// generator is SplitMix64 (Steele et al., OOPSLA 2014), which has a trivially
// correct split operation: deriving child generators from independent
// substreams of the parent.
package xrand

import "math"

// Source is a deterministic PRNG. The zero value is a valid generator
// seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

const (
	gamma = 0x9E3779B97F4A7C15
	mul1  = 0xBF58476D1CE4E5B9
	mul2  = 0x94D049BB133111EB
)

// Uint64 returns the next 64-bit value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return Mix(s.state)
}

// Mix is the SplitMix64 finalizer: a full-avalanche scramble of z. It is
// the one copy every package uses to derive substream seeds and
// self-certifying values.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mul1
	z = (z ^ (z >> 27)) * mul2
	return z ^ (z >> 31)
}

// Split derives an independent child generator. The child's stream does not
// overlap the parent's continued stream.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(math.MaxUint64) - uint64(math.MaxUint64)%uint64(n)
	for {
		v := s.Uint64()
		if v < max {
			return int64(v % uint64(n))
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return int(s.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an exponential variate with mean 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z) for standard normal Z; handy for
// heavy-tailed noise magnitudes such as OS interference bursts.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
