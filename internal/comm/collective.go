package comm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
)

// Collectives a program calls explicitly: a barrier and integer
// all-reduce (a global sum such as K-means' distance total), over
// point-to-point Control messages with a gather-to-root/broadcast tree
// of depth 1 — two hops, which is plenty at the cluster sizes the paper
// evaluates (≤16 nodes). No engine pass calls them: a superstep's
// termination rides its update frames or the bitmap it syncs, one hop. They wait with the
// endpoint's plain Recv: a caller that wants its collectives deadlined
// hands in an endpoint whose Recv carries the deadline (core.Worker
// does). Segment exchanges — bitmap sync, the gathers — live with the
// engine, which knows the partition.
//
// Each collective call site must pass a tag that is unique within the
// current communication phase; the engine derives tags from iteration and
// phase numbers. All nodes must call the same collectives in the same
// order — the usual SPMD contract.

// Barrier blocks until every node in the cluster has entered it.
func Barrier(e Endpoint, tag int32) error {
	_, err := AllReduceInt64(e, 0, tag, func(a, b int64) int64 { return a + b })
	return err
}

// AllReduceInt64 combines x across all nodes with op (which must be
// associative and commutative) and returns the result on every node.
// Payloads cycle through the slab: each 8-byte frame is acquired from
// bufpool, handed off via SendBufs, and Released after decoding, so the
// per-superstep collectives allocate nothing in steady state.
func AllReduceInt64(e Endpoint, x int64, tag int32, op func(a, b int64) int64) (int64, error) {
	if e.ID() != 0 {
		if err := sendInt64(e, 0, tag, x); err != nil {
			return 0, err
		}
		return recvInt64(e, 0, tag)
	}
	acc := x
	for from := 1; from < e.N(); from++ {
		v, err := recvInt64(e, NodeID(from), tag)
		if err != nil {
			return 0, err
		}
		acc = op(acc, v)
	}
	for to := 1; to < e.N(); to++ {
		if err := sendInt64(e, NodeID(to), tag, acc); err != nil {
			return 0, err
		}
	}
	return acc, nil
}

// sendInt64 ships one 8-byte value in a slab-owned frame.
func sendInt64(e Endpoint, to NodeID, tag int32, v int64) error {
	buf := bufpool.Get(8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	return e.SendBufs(to, KindControl, tag, Buffers{buf})
}

// recvInt64 receives what sendInt64 shipped; a frame of any other size is
// a protocol violation, not eight bytes to guess at.
func recvInt64(e Endpoint, from NodeID, tag int32) (int64, error) {
	m, err := e.Recv(from, KindControl, tag)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	if len(m.Payload) != 8 {
		return 0, &ProtocolError{Node: e.ID(), From: from, Kind: KindControl, WantTag: tag, GotTag: tag,
			Reason: fmt.Sprintf("reduce frame is %d bytes, want 8", len(m.Payload))}
	}
	return int64(binary.LittleEndian.Uint64(m.Payload)), nil
}
