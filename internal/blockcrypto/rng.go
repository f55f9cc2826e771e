package blockcrypto

import "encoding/binary"

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64) used for all randomized simulation decisions. It exists so
// that simulation code never reaches for math/rand global state: every
// component owns a seeded RNG and runs are exactly reproducible.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from the current one, labelled by
// name, without disturbing the parent's stream. Forking by label keeps
// subsystem streams stable even when unrelated code adds or removes draws.
func (r *RNG) Fork(name string) *RNG {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], r.state)
	h := SumConcat(buf[:], []byte(name))
	return &RNG{state: h.Uint64()}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers validate n at configuration time.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("blockcrypto: RNG.Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, via the polar Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// math.Sqrt(-2*math.Log(s)/s) without importing math would be
		// silly; use the stdlib.
		return u * boxMullerScale(s)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
