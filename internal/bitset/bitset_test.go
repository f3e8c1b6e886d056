package bitset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestCountAndAny(t *testing.T) {
	b := New(130)
	if b.Any() {
		t.Fatal("fresh bitmap reports Any")
	}
	want := []int{3, 64, 128, 129}
	for _, i := range want {
		b.Set(i)
	}
	if got := b.Count(); got != len(want) {
		t.Fatalf("Count = %d, want %d", got, len(want))
	}
	if !b.Any() {
		t.Fatal("Any = false with bits set")
	}
	b.ClearAll()
	if b.Count() != 0 || b.Any() {
		t.Fatal("ClearAll left bits set")
	}
}

func TestFillTrimsTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := New(n)
		b.Fill()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Fill then Count = %d", n, got)
		}
	}
}

func TestZeroLength(t *testing.T) {
	b := New(0)
	if b.Count() != 0 || b.Any() {
		t.Fatal("zero-length bitmap misbehaves")
	}
	b.Fill()
	if b.Count() != 0 {
		t.Fatal("Fill on zero-length bitmap set bits")
	}
	b.Range(func(int) bool { t.Fatal("Range visited a bit"); return false })
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	b := New(300)
	want := []int{0, 5, 63, 64, 190, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.Range(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v, want %v", got, want)
		}
	}
	var count int
	b.Range(func(i int) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d bits, want 3", count)
	}
}

func TestRangeSegment(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 3 {
		b.Set(i)
	}
	for _, seg := range [][2]int{{0, 256}, {0, 1}, {63, 65}, {64, 128}, {100, 101}, {130, 130}, {255, 256}} {
		lo, hi := seg[0], seg[1]
		var got []int
		b.RangeSegment(lo, hi, func(i int) bool { got = append(got, i); return true })
		var want []int
		for i := lo; i < hi; i++ {
			if b.Get(i) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("segment [%d,%d): got %v want %v", lo, hi, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segment [%d,%d): got %v want %v", lo, hi, got, want)
			}
		}
		if c := b.CountSegment(lo, hi); c != len(want) {
			t.Fatalf("CountSegment [%d,%d) = %d, want %d", lo, hi, c, len(want))
		}
	}
}

// TestOrAndNotSegment checks b |= x &^ y against a bit-by-bit reference
// over word-aligned, unaligned, empty and whole-length segments, with b
// starting non-empty so the bits it keeps outside and inside the segment
// are checked too.
func TestOrAndNotSegment(t *testing.T) {
	const n = 200
	x, y, init := New(n), New(n), New(n)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			x.Set(i)
		}
		if i%5 == 0 {
			y.Set(i)
		}
		if i%7 == 0 {
			init.Set(i)
		}
	}
	for _, seg := range [][2]int{{0, n}, {0, 64}, {64, 128}, {63, 65}, {5, 190}, {128, 200}, {199, 200}, {70, 70}} {
		lo, hi := seg[0], seg[1]
		b := init.Clone()
		b.OrAndNotSegment(x, y, lo, hi)
		for i := 0; i < n; i++ {
			want := init.Get(i) || (lo <= i && i < hi && x.Get(i) && !y.Get(i))
			if b.Get(i) != want {
				t.Fatalf("segment [%d,%d): bit %d = %v, want %v", lo, hi, i, b.Get(i), want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OrAndNotSegment past the end did not panic")
		}
	}()
	New(n).OrAndNotSegment(x, y, 0, n+1)
}

func TestSetOps(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)

	u := a.Clone()
	u.Union(b)
	if !(u.Get(1) && u.Get(50) && u.Get(99) && u.Count() == 3) {
		t.Fatalf("Union wrong: %v", u)
	}

	in := a.Clone()
	in.Intersect(b)
	if !(in.Get(50) && in.Count() == 1) {
		t.Fatalf("Intersect wrong: %v", in)
	}

	d := a.Clone()
	d.AndNot(b)
	if !(d.Get(1) && d.Count() == 1) {
		t.Fatalf("AndNot wrong: %v", d)
	}
}

func TestCloneEqualCopyFrom(t *testing.T) {
	a := New(70)
	a.Set(0)
	a.Set(69)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(30)
	if a.Equal(c) {
		t.Fatal("mutating clone affected equality check unexpectedly")
	}
	if a.Get(30) {
		t.Fatal("clone shares storage with original")
	}
	a.CopyFrom(c)
	if !a.Equal(c) {
		t.Fatal("CopyFrom did not copy")
	}
	if a.Equal(New(71)) {
		t.Fatal("Equal ignores length")
	}
}

func TestAtomicSetConcurrent(t *testing.T) {
	const n = 4096
	b := New(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				b.SetAtomic(i)
			}
		}(w)
	}
	wg.Wait()
	if got := b.Count(); got != n {
		t.Fatalf("concurrent SetAtomic: Count = %d, want %d", got, n)
	}
}

func TestTestAndSetAtomic(t *testing.T) {
	b := New(64)
	if !b.TestAndSetAtomic(7) {
		t.Fatal("first TestAndSetAtomic returned false")
	}
	if b.TestAndSetAtomic(7) {
		t.Fatal("second TestAndSetAtomic returned true")
	}
	if !b.Get(7) {
		t.Fatal("bit not set")
	}
	// Exactly one winner under contention.
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		bm := New(1)
		var wg sync.WaitGroup
		wins := make(chan bool, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if bm.TestAndSetAtomic(0) {
					wins <- true
				}
			}()
		}
		wg.Wait()
		close(wins)
		n := 0
		for range wins {
			n++
		}
		if n != 1 {
			t.Fatalf("trial %d: %d winners, want 1", trial, n)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 64, 65, 1000} {
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		buf := b.MarshalBinaryTo(nil)
		if len(buf) != b.MarshaledSize() {
			t.Fatalf("n=%d: payload %d bytes, MarshaledSize %d", n, len(buf), b.MarshaledSize())
		}
		c := New(n)
		if err := c.UnmarshalBinary(buf); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if !b.Equal(c) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalSizeMismatch(t *testing.T) {
	b := New(64)
	if err := b.UnmarshalBinary(make([]byte, 7)); err == nil {
		t.Fatal("UnmarshalBinary accepted short payload")
	}
}

// TestOutOfRangePanics: the range check survives the accessors becoming
// inlinable — every single-bit accessor panics one past the end and on a
// negative index, and the panic value still reads as the old message.
func TestOutOfRangePanics(t *testing.T) {
	accessors := map[string]func(*Bitmap, int){
		"Set":              func(b *Bitmap, i int) { b.Set(i) },
		"Get":              func(b *Bitmap, i int) { b.Get(i) },
		"Clear":            func(b *Bitmap, i int) { b.Clear(i) },
		"SetAtomic":        func(b *Bitmap, i int) { b.SetAtomic(i) },
		"GetAtomic":        func(b *Bitmap, i int) { b.GetAtomic(i) },
		"TestAndSetAtomic": func(b *Bitmap, i int) { b.TestAndSetAtomic(i) },
	}
	for name, fn := range accessors {
		for _, i := range []int{10, -1, 64, -1 << 62} {
			func() {
				defer func() {
					want := fmt.Sprintf("bitset: index %d out of range [0,10)", i)
					if r := recover(); r == nil {
						t.Fatalf("%s(%d): no panic", name, i)
					} else if got := fmt.Sprint(r); got != want {
						t.Fatalf("%s(%d): panic reads %q, want %q", name, i, got, want)
					}
				}()
				fn(New(10), i)
			}()
		}
		fn(New(10), 9) // the last valid index does not panic
	}
	segments := []func(*Bitmap){
		func(b *Bitmap) { b.RangeSegment(0, 11, func(int) bool { return true }) },
		func(b *Bitmap) { b.RangeSegment(5, 4, func(int) bool { return true }) },
		func(b *Bitmap) { b.CountSegment(-1, 4) },
		func(b *Bitmap) { b.CountSegment(0, 11) },
	}
	for i, fn := range segments {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("segment case %d: no panic", i)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union with mismatched lengths did not panic")
		}
	}()
	New(10).Union(New(11))
}

// Property: for arbitrary index sets, the bitmap behaves like a set of ints.
func TestQuickSetSemantics(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		b := New(n)
		ref := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			b.Set(i)
			ref[i] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		ok := true
		b.Range(func(i int) bool {
			if !ref[i] {
				ok = false
				return false
			}
			delete(ref, i)
			return true
		})
		return ok && len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal/unmarshal is the identity for arbitrary contents.
func TestQuickMarshalIdentity(t *testing.T) {
	f := func(raw []uint16, nRaw uint16) bool {
		n := int(nRaw) + 1
		b := New(n)
		for _, r := range raw {
			b.Set(int(r) % n)
		}
		c := New(n)
		if err := c.UnmarshalBinary(b.MarshalBinaryTo(nil)); err != nil {
			return false
		}
		return b.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetSequential(b *testing.B) {
	bm := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
	}
}

// BenchmarkBitmapGet is the per-edge probe of every dependency kernel: a
// read of a pseudo-random bit of a cache-resident bitmap. It costs a few
// ns inlined and several times that as a call, which is what a fmt call in
// check makes it (`make inline-check`).
func BenchmarkBitmapGet(b *testing.B) {
	bm := New(1 << 16)
	for i := 0; i < bm.Len(); i += 3 {
		bm.Set(i)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm.Get((i * 40503) & (1<<16 - 1)) {
			hits++
		}
	}
	benchHits = hits
}

var benchHits int

func BenchmarkRangeDense(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < bm.Len(); i += 2 {
		bm.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		bm.Range(func(j int) bool { sum += j; return true })
	}
}
