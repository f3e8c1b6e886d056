package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Checkpoint is a worker's handle on its program's declared superstep
// state. The program declares that state once per Run, restores it once
// before its superstep loop and calls Save at the top of every iteration;
// the engine encodes the state at Options.CheckpointEvery's boundaries,
// keeps the last snapshot every node committed, and decodes it back into
// the declared variables after a recovery. Programs never see bytes.
// With checkpointing off, Save does nothing and Restore returns 0.
type Checkpoint struct {
	w     *Worker
	items []stateItem
}

// Checkpoint declares this worker's superstep state: pointers to int,
// int32, int64 or float64 scalars, slices of uint32 (graph.VertexID
// too), int32, int64, float32 or float64 whose length never changes,
// and *bitset.Bitmap. Saves read the items and a restore overwrites
// them in place, so each must stay the variable the loop uses — swap
// bitmap contents (Bitmap.Swap), not pointers. Any other type panics.
func (w *Worker) Checkpoint(state ...any) Checkpoint {
	items := make([]stateItem, len(state))
	for i, x := range state {
		items[i] = declare(x)
	}
	return Checkpoint{w: w, items: items}
}

// Save snapshots the declared state as iteration iter's when iter is a
// positive multiple of Options.CheckpointEvery — the same answer on every
// node, so saves stay SPMD-aligned. The iteration commits once every node
// has saved it.
func (c Checkpoint) Save(iter int) {
	if c.w.cluster.ckpt == nil || iter <= 0 || iter%c.w.cluster.opts.CheckpointEvery != 0 {
		return
	}
	start := c.w.spanStart()
	c.w.cluster.ckpt.Save(c.w.id, iter, encodeState(c.items))
	c.w.endSpan(obs.PhaseCheckpoint, iter, -1, -1, start)
}

// Restore overwrites the declared state with this node's snapshot at the
// last committed iteration and returns that iteration, or returns 0 and
// leaves the state as the program set it when nothing has committed. A
// snapshot that does not decode against the declaration fails with an
// error naming the node and iteration, and restores nothing.
func (c Checkpoint) Restore() (int, error) {
	if c.w.cluster.ckpt == nil {
		return 0, nil
	}
	start := time.Now()
	iter, blob, ok := c.w.cluster.ckpt.Restore(c.w.id)
	if !ok {
		return 0, nil
	}
	if err := decodeState(c.items, blob); err != nil {
		return 0, fmt.Errorf("core: node %d: checkpoint of iteration %d: %w", c.w.id, iter, err)
	}
	if c.w.tr != nil {
		c.w.tr.Record(c.w.id, obs.PhaseRecovery, iter, -1, -1, start, time.Since(start))
	}
	return iter, nil
}

// stateVersion heads every snapshot, followed by the item count and each
// item's byte length (little-endian u32s), then the items' bytes.
const stateVersion = 1

// stateItem is one declared variable, encoded by the engine's element
// codec or, for a bitmap, as its words.
type stateItem interface {
	size() int
	appendTo(out []byte) []byte
	decode(src []byte) // src is exactly size() bytes
}

type elems[T Wire] []T

func (e elems[T]) size() int         { return len(e) * codecOf[T]().size }
func (e elems[T]) decode(src []byte) { codecOf[T]().getAll(e, src) }
func (e elems[T]) appendTo(out []byte) []byte {
	n := len(out)
	out = slices.Grow(out, e.size())[:n+e.size()]
	codecOf[T]().putAll(out[n:], e)
	return out
}

type bitmapItem struct{ b *bitset.Bitmap }

func (m bitmapItem) size() int                  { return m.b.MarshaledSize() }
func (m bitmapItem) appendTo(out []byte) []byte { return m.b.MarshalBinaryTo(out) }
func (m bitmapItem) decode(src []byte)          { _ = m.b.UnmarshalBinary(src) } // it checks the length alone

// declare maps a declared variable to its item; a scalar is a slice of
// one.
func declare(x any) stateItem {
	switch v := x.(type) {
	case *int: // as an int64, or an int32 where int is 32 bits wide
		if strconv.IntSize == 32 {
			return elems[int32](unsafe.Slice((*int32)(unsafe.Pointer(v)), 1))
		}
		return elems[int64](unsafe.Slice((*int64)(unsafe.Pointer(v)), 1))
	case *int32:
		return elems[int32](unsafe.Slice(v, 1))
	case *int64:
		return elems[int64](unsafe.Slice(v, 1))
	case *float64:
		return elems[float64](unsafe.Slice(v, 1))
	case []uint32:
		return elems[uint32](v)
	case []graph.VertexID:
		return elems[uint32](unsafe.Slice((*uint32)(unsafe.SliceData(v)), len(v)))
	case []int32:
		return elems[int32](v)
	case []int64:
		return elems[int64](v)
	case []float32:
		return elems[float32](v)
	case []float64:
		return elems[float64](v)
	case *bitset.Bitmap:
		return bitmapItem{v}
	}
	panic(fmt.Sprintf("core: cannot checkpoint a %T", x))
}

// encodeState is the snapshot of items as they stand.
func encodeState(items []stateItem) []byte {
	size := 8 + 4*len(items)
	for _, it := range items {
		size += it.size()
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), stateVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(items)))
	for _, it := range items {
		out = binary.LittleEndian.AppendUint32(out, uint32(it.size()))
	}
	for _, it := range items {
		out = it.appendTo(out)
	}
	return out
}

// decodeState checks blob's whole layout against items, then overwrites
// them: a foreign version, a truncated blob, trailing bytes or an item of
// another length fails before any item changes.
func decodeState(items []stateItem, blob []byte) error {
	head := 8 + 4*len(items)
	word := func(i int) int { return int(binary.LittleEndian.Uint32(blob[4*i:])) }
	switch {
	case len(blob) < 8:
		return fmt.Errorf("snapshot truncated to %d bytes", len(blob))
	case word(0) != stateVersion:
		return fmt.Errorf("snapshot version %d, want %d", word(0), stateVersion)
	case word(1) != len(items):
		return fmt.Errorf("snapshot holds %d items, %d declared", word(1), len(items))
	case len(blob) < head:
		return fmt.Errorf("snapshot truncated to %d bytes", len(blob))
	}
	total := head
	for i, it := range items {
		if n := word(2 + i); n != it.size() {
			return fmt.Errorf("snapshot item %d is %d bytes, declared %d", i, n, it.size())
		}
		total += it.size()
	}
	if len(blob) != total {
		return fmt.Errorf("snapshot is %d bytes, its header says %d", len(blob), total)
	}
	for _, it := range items {
		it.decode(blob[head : head+it.size()])
		head += it.size()
	}
	return nil
}
