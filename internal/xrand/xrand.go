// Package xrand provides deterministic, coordinate-indexed pseudo-random
// values. Distributed algorithms need per-(seed, iteration, vertex)
// randomness that every machine — and the sequential oracle — computes
// identically without communication; a counter-mode hash provides exactly
// that. The mixer is SplitMix64's finalizer, which passes standard
// avalanche tests and is the stdlib-independent workhorse for this use.
package xrand

// Mix hashes an arbitrary coordinate tuple into a uint64.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix(h)
	}
	return h
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uniform01 returns a deterministic value in [0, 1) for the coordinate
// tuple.
func Uniform01(vals ...uint64) float64 {
	return float64(Mix(vals...)>>11) / float64(1<<53)
}

// UniformWeight returns a deterministic value in (0, 1] — usable as a
// positive vertex or edge weight.
func UniformWeight(vals ...uint64) float64 {
	u := Uniform01(vals...)
	if u == 0 {
		return 1
	}
	return 1 - u
}

// Intn returns a deterministic value in [0, n) for the coordinate tuple.
// It panics if n <= 0.
func Intn(n int, vals ...uint64) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	v := Uniform01(vals...) * float64(n)
	i := int(v)
	if i >= n { // guard against float rounding at the boundary
		i = n - 1
	}
	return i
}

// Perm returns a deterministic permutation of [0, n) for the seed — used
// for MIS color assignment, where every machine must agree on distinct
// vertex colors without exchanging them.
func Perm(n int, seed uint64) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	// Fisher–Yates with deterministic draws.
	for i := n - 1; i > 0; i-- {
		j := Intn(i+1, seed, uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
