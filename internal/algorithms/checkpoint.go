package algorithms

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitset"
)

// Superstep snapshot encoding for the checkpoint/restart path
// (core.Worker.Checkpoint). Each algorithm serializes exactly the
// per-node replicated state its superstep loop carries — the same bytes
// a real machine would spill to stable storage — so a recovered run
// resumes from the committed iteration and produces bit-identical
// results to a fault-free one.
//
// The format is a version byte followed by fixed-order little-endian
// fields; array lengths are implied by the graph size, which the
// re-formed cluster shares with the failed one.

const snapVersion = 1

// snapWriter accumulates a snapshot blob.
type snapWriter struct {
	buf []byte
}

func newSnapWriter() *snapWriter {
	return &snapWriter{buf: []byte{snapVersion}}
}

func (sw *snapWriter) u32(v uint32) {
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, v)
}

func (sw *snapWriter) u32s(vs []uint32) {
	for _, v := range vs {
		sw.u32(v)
	}
}

func (sw *snapWriter) i32s(vs []int32) {
	for _, v := range vs {
		sw.u32(uint32(v))
	}
}

func (sw *snapWriter) f32s(vs []float32) {
	for _, v := range vs {
		sw.u32(math.Float32bits(v))
	}
}

func (sw *snapWriter) f64(v float64) {
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(v))
}

func (sw *snapWriter) bitmap(b *bitset.Bitmap) {
	sw.buf = b.MarshalBinaryTo(sw.buf)
}

func (sw *snapWriter) bytes() []byte { return sw.buf }

// snapReader decodes a snapshot blob, tracking truncation.
type snapReader struct {
	buf []byte
	off int
	err error
}

func newSnapReader(blob []byte) *snapReader {
	r := &snapReader{buf: blob}
	if len(blob) < 1 || blob[0] != snapVersion {
		r.err = fmt.Errorf("algorithms: snapshot version mismatch")
		return r
	}
	r.off = 1
	return r
}

func (sr *snapReader) u32() uint32 {
	if sr.err != nil {
		return 0
	}
	if sr.off+4 > len(sr.buf) {
		sr.err = fmt.Errorf("algorithms: snapshot truncated at offset %d", sr.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(sr.buf[sr.off:])
	sr.off += 4
	return v
}

func (sr *snapReader) u32s(dst []uint32) {
	for i := range dst {
		dst[i] = sr.u32()
	}
}

func (sr *snapReader) i32s(dst []int32) {
	for i := range dst {
		dst[i] = int32(sr.u32())
	}
}

func (sr *snapReader) f32s(dst []float32) {
	for i := range dst {
		dst[i] = math.Float32frombits(sr.u32())
	}
}

func (sr *snapReader) f64() float64 {
	lo, hi := sr.u32(), sr.u32()
	return math.Float64frombits(uint64(hi)<<32 | uint64(lo))
}

func (sr *snapReader) bitmap(b *bitset.Bitmap) {
	if sr.err != nil {
		return
	}
	size := b.MarshaledSize()
	if sr.off+size > len(sr.buf) {
		sr.err = fmt.Errorf("algorithms: snapshot truncated at offset %d", sr.off)
		return
	}
	sr.err = b.UnmarshalBinary(sr.buf[sr.off : sr.off+size])
	sr.off += size
}

// finish reports a decoding error, including trailing garbage.
func (sr *snapReader) finish() error {
	if sr.err != nil {
		return sr.err
	}
	if sr.off != len(sr.buf) {
		return fmt.Errorf("algorithms: snapshot has %d trailing bytes", len(sr.buf)-sr.off)
	}
	return nil
}
