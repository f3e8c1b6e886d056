package xrand

import (
	"testing"
	"testing/quick"
)

func TestMixDeterministic(t *testing.T) {
	if Mix(1, 2, 3) != Mix(1, 2, 3) {
		t.Fatal("Mix not deterministic")
	}
	if Mix(1, 2, 3) == Mix(1, 2, 4) || Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix collides on trivially different tuples")
	}
}

func TestUniform01Range(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := Uniform01(42, i)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform01 = %g out of [0,1)", u)
		}
	}
}

func TestUniform01Distribution(t *testing.T) {
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := uint64(0); i < n; i++ {
		u := Uniform01(7, i)
		sum += u
		buckets[int(u*10)]++
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %g, want ~0.5", mean)
	}
	for b, c := range buckets {
		if c < n/10-n/100 || c > n/10+n/100 {
			t.Fatalf("bucket %d has %d of %d", b, c, n)
		}
	}
}

func TestUniformWeightPositive(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		w := Key(3).UniformWeight(i)
		if w <= 0 || w > 1 {
			t.Fatalf("UniformWeight = %g out of (0,1]", w)
		}
	}
}

func TestIntn(t *testing.T) {
	seen := make([]bool, 7)
	for i := uint64(0); i < 1000; i++ {
		v := Intn(7, 5, i)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn = %d", v)
		}
		seen[v] = true
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("value %d never drawn", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	Intn(0, 1)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(nRaw uint8, seed uint64) bool {
		n := int(nRaw)
		p := Perm(n, seed)
		seen := make([]bool, n)
		for _, v := range p {
			if int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermVariesWithSeed(t *testing.T) {
	a, b := Perm(100, 1), Perm(100, 2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds gave identical permutations")
	}
}

// refMix is the tuple hash written as one loop over the coordinates: the
// definition every seeded draw in the repository must reproduce.
func refMix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix(h)
	}
	return h
}

// TestKeyMatchesMix holds the keyed forms to the one-shot ones bit for
// bit: for tuples of 0–6 coordinates split at every point — the empty
// key included — Key(a…).Mix(b…), .Uniform01(b…) and .Intn(n, b…) equal
// Mix, Uniform01 and Intn over the whole tuple, and Mix equals refMix.
func TestKeyMatchesMix(t *testing.T) {
	f := func(all [6]uint64, length uint8, nRaw uint16) bool {
		coords := all[:length%7]
		n := int(nRaw) + 1
		if Mix(coords...) != refMix(coords...) {
			return false
		}
		for split := 0; split <= len(coords); split++ {
			k := Key(coords[:split]...)
			rest := coords[split:]
			if k.Mix(rest...) != Mix(coords...) ||
				k.Uniform01(rest...) != Uniform01(coords...) ||
				k.Intn(n, rest...) != Intn(n, coords...) ||
				k.UniformWeight(rest...) != 1-Uniform01(coords...) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if Key().Mix() != refMix() || Key().Uniform01() != Uniform01() {
		t.Fatal("the empty key differs from the empty tuple")
	}
}
