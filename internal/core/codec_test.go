package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// wireCase is a value and its encoding, in hex.
type wireCase[T Wire] struct {
	v   T
	hex string
}

// TestWireCodecs pins every Wire type's width and byte pattern — the
// widths keep update, gather and snapshot bytes what they were — and
// round-trips boundary values singly and in bulk: a NaN keeps its
// payload and −0 its sign.
func TestWireCodecs(t *testing.T) {
	nan32 := math.Float32frombits(0x7fc0beef)
	nan64 := math.Float64frombits(0x7ff80000deadbeef)
	negZero := math.Copysign(0, -1)
	checkCodec(t, 0, []wireCase[struct{}]{{struct{}{}, ""}})
	checkCodec(t, 4, []wireCase[uint32]{{0, "00000000"}, {0x01020304, "04030201"}, {math.MaxUint32, "ffffffff"}})
	checkCodec(t, 4, []wireCase[int32]{{-1, "ffffffff"}, {math.MinInt32, "00000080"}, {math.MaxInt32, "ffffff7f"}})
	checkCodec(t, 8, []wireCase[int64]{{-2, "feffffffffffffff"}, {math.MinInt64, "0000000000000080"},
		{math.MaxInt64, "ffffffffffffff7f"}})
	checkCodec(t, 4, []wireCase[float32]{{float32(negZero), "00000080"}, {float32(math.Inf(1)), "0000807f"},
		{float32(math.Inf(-1)), "000080ff"}, {nan32, "efbec07f"}, {1, "0000803f"}})
	checkCodec(t, 8, []wireCase[float64]{{negZero, "0000000000000080"}, {math.Inf(1), "000000000000f07f"},
		{math.Inf(-1), "000000000000f0ff"}, {nan64, "efbeadde0000f87f"}, {1, "000000000000f03f"}})
	checkCodec(t, 12, []wireCase[WeightedPick]{
		{WeightedPick{Sum: math.Inf(-1), Cand: math.MaxUint32}, "000000000000f0ff" + "ffffffff"},
		{WeightedPick{Sum: nan64, Cand: 7}, "efbeadde0000f87f" + "07000000"},
		{WeightedPick{Sum: negZero}, "0000000000000080" + "00000000"},
	})
}

func checkCodec[T Wire](t *testing.T, width int, cases []wireCase[T]) {
	t.Helper()
	c := codecOf[T]()
	name := fmt.Sprintf("%T", *new(T))
	if c.size != width {
		t.Errorf("%s: %d bytes, want %d", name, c.size, width)
	}
	vals := make([]T, len(cases))
	var all []byte
	for i, tc := range cases {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, c.size)
		c.put(got, tc.v)
		if !bytes.Equal(got, want) {
			t.Errorf("%s %v: encodes as %x, want %x", name, tc.v, got, want)
		}
		if back := c.get(want); !sameBits(back, tc.v) {
			t.Errorf("%s %v: decodes as %v", name, tc.v, back)
		}
		vals[i] = tc.v
		all = append(all, want...)
	}
	bulk := make([]byte, len(all))
	c.putAll(bulk, vals)
	if !bytes.Equal(bulk, all) {
		t.Errorf("%s: bulk encoding %x, want %x", name, bulk, all)
	}
	back := make([]T, len(vals))
	c.getAll(back, all)
	for i := range back {
		if !sameBits(back[i], vals[i]) {
			t.Errorf("%s: bulk decode [%d] = %v, want %v", name, i, back[i], vals[i])
		}
	}
}

// sameBits compares bit patterns: a NaN equals itself, −0 differs from +0.
func sameBits[T Wire](a, b T) bool {
	switch x := any(a).(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	case WeightedPick:
		y := any(b).(WeightedPick)
		return math.Float64bits(x.Sum) == math.Float64bits(y.Sum) && x.Cand == y.Cand
	}
	return a == b
}
