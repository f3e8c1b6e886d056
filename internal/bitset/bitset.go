// Package bitset provides a fixed-size bitmap specialized for dense vertex
// sets in graph processing.
//
// The zero value of Bitmap is an empty bitmap of length zero; use New to
// allocate one sized for a vertex range. Bitmap supports both plain and
// atomic mutation so that a frontier can be filled concurrently by worker
// threads and then scanned sequentially, which is the dominant access
// pattern in the engine. Dependency messages circulate between simulated
// machines as serialized bitmaps (one bit per vertex), so Bitmap also
// round-trips to a compact byte representation.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitmap is a fixed-length bit vector indexed from 0 to Len()-1.
type Bitmap struct {
	n     int
	words []uint64
}

// New returns a Bitmap holding n bits, all zero.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len reports the number of bits the bitmap holds.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i. It panics if i is out of range.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetAtomic sets bit i using an atomic read-modify-write, safe for
// concurrent use with other SetAtomic and GetAtomic calls on any bits.
func (b *Bitmap) SetAtomic(i int) {
	b.check(i)
	addr := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
	}
}

// TestAndSetAtomic atomically sets bit i and reports whether this call
// changed it from 0 to 1 (i.e. returns false if it was already set).
func (b *Bitmap) TestAndSetAtomic(i int) bool {
	b.check(i)
	addr := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// GetAtomic reports whether bit i is set using an atomic load.
func (b *Bitmap) GetAtomic(i int) bool {
	b.check(i)
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(uint(i)%wordBits)) != 0
}

// ClearAll zeroes every bit.
func (b *Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill sets every bit.
func (b *Bitmap) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the tail bits of the last word beyond Len.
func (b *Bitmap) trim() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Union ORs other into b. Both bitmaps must have the same length.
func (b *Bitmap) Union(other *Bitmap) {
	b.sameLen(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Intersect ANDs other into b. Both bitmaps must have the same length.
func (b *Bitmap) Intersect(other *Bitmap) {
	b.sameLen(other)
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// AndNot clears every bit of b that is set in other.
func (b *Bitmap) AndNot(other *Bitmap) {
	b.sameLen(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// CopyFrom overwrites b's contents with other's. Lengths must match.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	b.sameLen(other)
	copy(b.words, other.words)
}

// Swap exchanges the contents of b and other in O(1). Lengths must
// match. A double-buffered frontier swaps this way when something else
// holds its two bitmaps, such as a declared checkpoint.
func (b *Bitmap) Swap(other *Bitmap) {
	b.sameLen(other)
	b.words, other.words = other.words, b.words
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Equal reports whether b and other have identical length and contents.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// Range calls fn for each set bit in ascending order. If fn returns false
// the iteration stops early.
func (b *Bitmap) Range(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// RangeSegment calls fn for each set bit i with lo <= i < hi, in ascending
// order. It panics if the segment is out of range.
func (b *Bitmap) RangeSegment(lo, hi int, fn func(i int) bool) {
	b.checkSegment(lo, hi)
	for wi := lo / wordBits; wi*wordBits < hi; wi++ {
		for w := b.segmentWord(wi, lo, hi); w != 0; w &= w - 1 {
			if !fn(wi*wordBits + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// CountSegment returns the number of set bits i with lo <= i < hi.
func (b *Bitmap) CountSegment(lo, hi int) int {
	b.checkSegment(lo, hi)
	c := 0
	for wi := lo / wordBits; wi*wordBits < hi; wi++ {
		c += bits.OnesCount64(b.segmentWord(wi, lo, hi))
	}
	return c
}

// OrAndNotSegment sets every bit i with lo <= i < hi that x has and y
// lacks, a word at a time; b's other bits are left alone. All three
// bitmaps must have the same length.
func (b *Bitmap) OrAndNotSegment(x, y *Bitmap, lo, hi int) {
	b.sameLen(x)
	b.sameLen(y)
	b.checkSegment(lo, hi)
	for wi := lo / wordBits; wi*wordBits < hi; wi++ {
		b.words[wi] |= x.segmentWord(wi, lo, hi) &^ y.words[wi]
	}
}

func (b *Bitmap) checkSegment(lo, hi int) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitset: segment [%d,%d) out of range [0,%d)", lo, hi, b.n))
	}
}

// segmentWord returns word wi with the bits outside [lo, hi) cleared.
func (b *Bitmap) segmentWord(wi, lo, hi int) uint64 {
	w := b.words[wi]
	if wi == lo/wordBits {
		w &= ^uint64(0) << (uint(lo) % wordBits)
	}
	if rem := hi - wi*wordBits; rem < wordBits {
		w &= (1 << uint(rem)) - 1
	}
	return w
}

// MarshalBinaryTo appends the bitmap payload (words in little-endian order)
// to dst and returns the extended slice. The length is not encoded; the
// receiver must know it (dependency bitmaps always cover a fixed vertex
// partition).
func (b *Bitmap) MarshalBinaryTo(dst []byte) []byte {
	return b.AppendSegmentLE(dst, 0, b.n)
}

// MarshaledSize returns the number of bytes MarshalBinaryTo appends.
func (b *Bitmap) MarshaledSize() int { return len(b.words) * 8 }

// UnmarshalBinary overwrites b from a payload produced by MarshalBinaryTo
// on a bitmap of the same length.
func (b *Bitmap) UnmarshalBinary(src []byte) error {
	if len(src) != len(b.words)*8 {
		return fmt.Errorf("bitset: payload is %d bytes, want %d", len(src), len(b.words)*8)
	}
	for i := range b.words {
		off := i * 8
		b.words[i] = uint64(src[off]) | uint64(src[off+1])<<8 |
			uint64(src[off+2])<<16 | uint64(src[off+3])<<24 |
			uint64(src[off+4])<<32 | uint64(src[off+5])<<40 |
			uint64(src[off+6])<<48 | uint64(src[off+7])<<56
	}
	b.trim()
	return nil
}

// String renders the bitmap as a compact {i, j, ...} set, for debugging.
func (b *Bitmap) String() string {
	out := "{"
	first := true
	b.Range(func(i int) bool {
		if !first {
			out += " "
		}
		out += fmt.Sprint(i)
		first = false
		return true
	})
	return out + "}"
}

// check panics unless 0 <= i < n, as one unsigned compare. The panic
// value formats its message only when somebody reads it: a fmt call here
// would push every single-bit accessor over the compiler's inlining
// budget and turn each probe of a per-edge loop into a real call
// (`make inline-check` holds the accessors to "can inline").
func (b *Bitmap) check(i int) {
	if uint(i) >= uint(b.n) {
		panic(indexError{i, b.n})
	}
}

// indexError is the panic value of an out-of-range single-bit access.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitset: index %d out of range [0,%d)", e.i, e.n)
}

func (b *Bitmap) sameLen(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", b.n, other.n))
	}
}
