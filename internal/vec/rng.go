package vec

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 seeding into xoshiro-style state). Every stochastic component
// of the simulators takes an explicit *RNG so that experiments and tests are
// exactly reproducible across runs and machines; we avoid math/rand's global
// state on purpose.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to expand the seed into two nonzero words.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1 = next(), next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new independent generator derived from r's stream; use it
// to give each simulated worker its own stream without cross-coupling.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Uint64 returns the next 64 random bits (xorshift128+).
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vec: RNG.Intn n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a standard normal variate (Box–Muller, polar form kept
// simple and branch-light for determinism).
func (r *RNG) Normal() float64 {
	// Marsaglia polar method.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrtNeg2LogOver(s)
		}
	}
}

func sqrtNeg2LogOver(s float64) float64 {
	return math.Sqrt(-2 * math.Log(s) / s)
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm fills a permutation of [0, n) into a new slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandomVector returns a vector of n iid uniform values in [lo, hi).
func (r *RNG) RandomVector(n int, lo, hi float64) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.Range(lo, hi)
	}
	return v
}

// NormalVector returns a vector of n iid standard normal values.
func (r *RNG) NormalVector(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.Normal()
	}
	return v
}
