package bitset

import (
	"encoding/binary"
	"fmt"
)

// Word-level serialization kernels. Frontier and dependency bitmaps
// travel between machines as runs of little-endian 64-bit words; these
// kernels move whole words between a Bitmap and a byte buffer in one
// pass, so the data plane never touches bits one at a time. Segments
// are addressed in bit coordinates: lo rounds down and hi rounds up to
// word boundaries, which is why the engine aligns its range cuts to
// 64 (see core.groupCut).

// SegmentWordBytes returns the number of bytes the word-aligned
// little-endian encoding of bits [lo, hi) occupies.
func SegmentWordBytes(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	return ((hi+wordBits-1)/wordBits - lo/wordBits) * 8
}

// AppendSegmentLE appends the words covering bits [lo, hi) to dst in
// little-endian order and returns the extended slice. When dst already
// has SegmentWordBytes(lo, hi) spare capacity — a slab buffer sized up
// front — no allocation occurs.
func (b *Bitmap) AppendSegmentLE(dst []byte, lo, hi int) []byte {
	if lo >= hi {
		return dst
	}
	wLo, wHi := lo/wordBits, (hi+wordBits-1)/wordBits
	off := len(dst)
	n := (wHi - wLo) * 8
	if cap(dst)-off < n {
		grown := make([]byte, off, off+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+n]
	for i, w := range b.words[wLo:wHi] {
		binary.LittleEndian.PutUint64(dst[off+i*8:], w)
	}
	return dst
}

// OrSegmentLE ORs little-endian words from src into the words covering
// bits [lo, hi) — the merge kernel for received bitmap segments. src
// must be exactly SegmentWordBytes(lo, hi) long, and bits beyond the
// bitmap's length in the final word must be zero in src.
func (b *Bitmap) OrSegmentLE(src []byte, lo, hi int) error {
	if lo >= hi {
		if len(src) != 0 {
			return fmt.Errorf("bitset: %d-byte payload for empty segment", len(src))
		}
		return nil
	}
	wLo, wHi := lo/wordBits, (hi+wordBits-1)/wordBits
	if len(src) != (wHi-wLo)*8 {
		return fmt.Errorf("bitset: segment payload is %d bytes, want %d", len(src), (wHi-wLo)*8)
	}
	for wi := wLo; wi < wHi; wi++ {
		b.words[wi] |= binary.LittleEndian.Uint64(src[(wi-wLo)*8:])
	}
	return nil
}
