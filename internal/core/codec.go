package core

import (
	"encoding/binary"
	"math"
)

// Wire names the types core puts on the wire or in a snapshot: a pass's
// update message M, the elements of a gathered array, and the declared
// state of a checkpoint. The type alone picks the encoding, so programs
// never serialize: each travels in a fixed width as its little-endian bit
// pattern — struct{} in 0 bytes, uint32, int32 and float32 in 4, int64
// and float64 in 8, WeightedPick as Sum then Cand in 12. A fixed width
// keeps framing trivial and byte accounting exact.
type Wire interface {
	struct{} | uint32 | int32 | int64 | float32 | float64 | WeightedPick
}

// WeightedPick is the Gemini-mode sampling message: a machine's local
// weight mass and its local candidate, hierarchically combined at the
// master (§2.1's graph sampling under a framework without dependency
// propagation).
type WeightedPick struct {
	Sum  float64
	Cand uint32
}

// codec is the encoding of one Wire type: size bytes per value, written
// by put and read by get. A pass resolves it once (codecOf), so a record
// costs one call and no type switch.
type codec[T Wire] struct {
	size int
	put  func(dst []byte, x T)
	get  func(src []byte) T
}

// The codec of each Wire type, handed out by codecOf.
var (
	unitCodec = codec[struct{}]{0, func([]byte, struct{}) {}, func([]byte) struct{} { return struct{}{} }}
	u32Codec  = codec[uint32]{4, binary.LittleEndian.PutUint32, binary.LittleEndian.Uint32}
	i32Codec  = codec[int32]{4,
		func(dst []byte, x int32) { binary.LittleEndian.PutUint32(dst, uint32(x)) },
		func(src []byte) int32 { return int32(binary.LittleEndian.Uint32(src)) }}
	i64Codec = codec[int64]{8,
		func(dst []byte, x int64) { binary.LittleEndian.PutUint64(dst, uint64(x)) },
		func(src []byte) int64 { return int64(binary.LittleEndian.Uint64(src)) }}
	f32Codec = codec[float32]{4,
		func(dst []byte, x float32) { binary.LittleEndian.PutUint32(dst, math.Float32bits(x)) },
		func(src []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(src)) }}
	f64Codec = codec[float64]{8,
		func(dst []byte, x float64) { binary.LittleEndian.PutUint64(dst, math.Float64bits(x)) },
		func(src []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(src)) }}
	pickCodec = codec[WeightedPick]{12,
		func(dst []byte, x WeightedPick) {
			binary.LittleEndian.PutUint64(dst, math.Float64bits(x.Sum))
			binary.LittleEndian.PutUint32(dst[8:], x.Cand)
		},
		func(src []byte) WeightedPick {
			return WeightedPick{Sum: math.Float64frombits(binary.LittleEndian.Uint64(src)),
				Cand: binary.LittleEndian.Uint32(src[8:])}
		}}
)

// codecOf returns T's codec.
func codecOf[T Wire]() *codec[T] {
	var c any
	switch any((*T)(nil)).(type) {
	case *struct{}:
		c = &unitCodec
	case *uint32:
		c = &u32Codec
	case *int32:
		c = &i32Codec
	case *int64:
		c = &i64Codec
	case *float32:
		c = &f32Codec
	case *float64:
		c = &f64Codec
	case *WeightedPick:
		c = &pickCodec
	}
	return c.(*codec[T])
}

// putAll writes src's values into dst, which holds exactly their size.
func (c *codec[T]) putAll(dst []byte, src []T) {
	for i, x := range src {
		c.put(dst[i*c.size:], x)
	}
}

// getAll fills dst from what putAll wrote.
func (c *codec[T]) getAll(dst []T, src []byte) {
	for i := range dst {
		dst[i] = c.get(src[i*c.size:])
	}
}
