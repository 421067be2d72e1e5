package xrt

import "math"

// Prng is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). Each rank owns one so that runs
// are reproducible for a fixed Config.Seed regardless of scheduling.
//
// Rank-stream guarantee (pinned by TestRankSeedDerivationPinned): rank i
// of a team with Config.Seed = s draws from NewPrng(s + i*0x9e3779b97f4a7c
// + 1). Because the four state words are derived by iterating Splitmix64 —
// a bijection on 64-bit integers — distinct seeds always produce distinct
// initial states, so the streams of any two ranks of one team are distinct
// for every rank count, and a rank's stream depends only on (s, i), never
// on scheduling, team size, or the perturbation seed. The derivation is
// additive, so the same 256-bit state does recur across *configurations*
// whose (s, i) collide — e.g. (s, i+1) and (s+0x9e3779b97f4a7c, i) — which
// is harmless within a run and only matters if callers assume two teams
// with nearby seeds have disjoint streams; seeds chosen more than ~4.4e16
// apart, or small integers (1, 2, 3, ...), never collide in practice
// because the stride is ≈ 4.4e16. Streams are full xoshiro256** sequences:
// overlap between distinct initial states is astronomically improbable
// (period 2^256 − 1).
type Prng struct {
	s [4]uint64
}

// NewPrng returns a generator seeded from seed via splitmix64.
func NewPrng(seed int64) *Prng {
	p := &Prng{}
	x := uint64(seed)
	for i := range p.s {
		x = Splitmix64(x)
		p.s[i] = x
	}
	// avoid the all-zero state
	if p.s[0]|p.s[1]|p.s[2]|p.s[3] == 0 {
		p.s[0] = 0x9e3779b97f4a7c15
	}
	return p
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (p *Prng) Uint64() uint64 {
	r := rotl(p.s[1]*5, 7) * 9
	t := p.s[1] << 17
	p.s[2] ^= p.s[0]
	p.s[3] ^= p.s[1]
	p.s[1] ^= p.s[2]
	p.s[0] ^= p.s[3]
	p.s[2] ^= t
	p.s[3] = rotl(p.s[3], 45)
	return r
}

// Intn returns a uniform int in [0, n). n must be positive.
func (p *Prng) Intn(n int) int {
	if n <= 0 {
		panic("xrt: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Int63 returns a non-negative random int64.
func (p *Prng) Int63() int64 { return int64(p.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (p *Prng) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (p *Prng) NormFloat64() float64 {
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			// one value is discarded for simplicity
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (p *Prng) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Splitmix64 is the standard 64-bit finalizing mixer; it is also used as
// the uniform hash function throughout the library.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
