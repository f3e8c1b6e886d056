// Package xrand provides deterministic, coordinate-indexed pseudo-random
// values. Distributed algorithms need per-(seed, iteration, vertex)
// randomness that every machine — and the sequential oracle — computes
// identically without communication; a counter-mode hash provides exactly
// that. The mixer is SplitMix64's finalizer, which passes standard
// avalanche tests and is the stdlib-independent workhorse for this use.
package xrand

const golden = 0x9e3779b97f4a7c15

// Prefix is a coordinate tuple's leading coordinates, already absorbed:
// a loop whose draws share them hashes them once (Key) and pays one step
// per remaining coordinate. Key(a…).Mix(b…) == Mix(a…, b…) bit for bit,
// and likewise for Uniform01 and Intn.
type Prefix struct{ h uint64 }

// Key absorbs the leading coordinates vals.
func Key(vals ...uint64) Prefix { return empty.with(vals...) }

// empty is the key of the empty tuple.
var empty = Prefix{golden}

// with absorbs further coordinates.
func (k Prefix) with(vals ...uint64) Prefix {
	for _, v := range vals {
		k.h = step(k.h, v)
	}
	return k
}

// step absorbs one coordinate into the hash state.
func step(h, v uint64) uint64 {
	return splitmix(h ^ (v + golden + (h << 6) + (h >> 2)))
}

func splitmix(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes the prefix followed by vals into a uint64.
func (k Prefix) Mix(vals ...uint64) uint64 { return k.with(vals...).h }

// Uniform01 returns a deterministic value in [0, 1) for the prefix
// followed by vals.
func (k Prefix) Uniform01(vals ...uint64) float64 {
	return float64(k.with(vals...).h>>11) / float64(1<<53)
}

// UniformWeight returns a deterministic value in (0, 1] for the prefix
// followed by vals — usable as a positive vertex or edge weight. The
// subtraction is exact: Uniform01 is a multiple of 2⁻⁵³ below 1.
func (k Prefix) UniformWeight(vals ...uint64) float64 { return 1 - k.Uniform01(vals...) }

// Intn returns a deterministic value in [0, n) for the prefix followed by
// vals. It panics if n <= 0.
func (k Prefix) Intn(n int, vals ...uint64) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	i := int(k.Uniform01(vals...) * float64(n))
	if i >= n { // guard against float rounding at the boundary
		i = n - 1
	}
	return i
}

// Mix hashes an arbitrary coordinate tuple into a uint64.
func Mix(vals ...uint64) uint64 { return Key(vals...).h }

// Uniform01 returns a deterministic value in [0, 1) for the coordinate
// tuple.
func Uniform01(vals ...uint64) float64 { return empty.Uniform01(vals...) }

// Intn returns a deterministic value in [0, n) for the coordinate tuple.
// It panics if n <= 0.
func Intn(n int, vals ...uint64) int { return empty.Intn(n, vals...) }

// Perm returns a deterministic permutation of [0, n) for the seed — used
// for MIS color assignment, where every machine must agree on distinct
// vertex colors without exchanging them.
func Perm(n int, seed uint64) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	// Fisher–Yates with deterministic draws.
	k := Key(seed)
	for i := n - 1; i > 0; i-- {
		j := k.Intn(i+1, uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
