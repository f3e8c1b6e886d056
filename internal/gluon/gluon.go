// Package gluon is the D-Galois (Gluon) baseline: a bulk-synchronous
// distributed graph engine in the style of Dathathri et al. (PLDI 2018),
// which the paper compares against (§7). Its execution model differs from
// the Gemini/SympleGraph engine in the two ways that matter for the
// comparison:
//
//   - synchronization is Gluon-style reduce + broadcast of vertex-label
//     arrays: after each compute round every machine sends its locally
//     updated proxy values to the owner (reduce), and owners broadcast
//     the combined values to every other machine — rather than Gemini's
//     single-direction delta messages;
//   - there is no dependency propagation and no circulant scheduling:
//     every machine scans its local edges in full each round (local
//     breaks still apply inside a machine, as in the original UDFs).
//
// The process runner is not part of what makes a system D-Galois: every
// algorithm here is a core.Cluster program, so the baseline's receives
// are deadlined, traced and poisoned like the engine's, and its work and
// traffic are read from the same Stats.
//
// This reproduces the paper's observation that D-Galois, tuned for
// 128–256-node scale, loses to Gemini and SympleGraph on small clusters
// where its heavier synchronization dominates (Tables 4 and 7,
// Figure 10). Graph sampling is intentionally absent, as it is in
// D-Galois ("Graph sampling implementation is not available", §7.1).
package gluon

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// Engine is a D-Galois cluster: a core.Cluster, whose Run, Stats, Close,
// Reset, SetTracer and SetBaseContext the baseline shares with the
// Gemini/SympleGraph engine, and each machine's Cartesian vertex-cut
// edge share.
type Engine struct {
	*core.Cluster
	local []*localCSR
}

// New builds the cluster over opts.NumNodes machines — the same vertex
// masters the core engine uses — and places g's edges on the machines'
// vertex-cut shares.
func New(g *graph.Graph, opts core.Options) (*Engine, error) {
	c, err := core.NewCluster(g, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{Cluster: c, local: buildLocalCSRs(g, c.Partition())}, nil
}

// syncReduceBroadcastU32 is the Gluon synchronization primitive for a
// uint32 vertex field, run by every machine of a program: each sends
// (vertex, value) for the non-owned vertices it touched this round to
// their owners, which fold the values into the field with combine
// (reduce); owners then send every master value that changed, or received
// a reduction, to all other machines, which overwrite their proxies
// (broadcast). Both phases are one update-plane AllToAll. touched is
// cleared on return. The returned count is the number of master vertices
// whose value changed globally this round.
func (e *Engine) syncReduceBroadcastU32(w *core.Worker, field []uint32, touched *bitset.Bitmap, combine func(a, b uint32) uint32) (int64, error) {
	pt := e.Partition()
	lo, hi := w.MasterRange()
	toOwner := make([][]byte, w.N())
	touched.Range(func(v int) bool {
		if owner := pt.Owner(graph.VertexID(v)); owner != w.ID() {
			toOwner[owner] = appendRecord(toOwner[owner], v, field[v])
		}
		return true
	})
	changed := bitset.New(hi - lo)
	touched.RangeSegment(lo, hi, func(v int) bool { changed.Set(v - lo); return true })
	err := w.AllToAll(comm.KindUpdate, func(peer int) []byte { return toOwner[peer] }, func(_ int, payload []byte) error {
		return records(payload, lo, hi, func(v int, val uint32) {
			if nv := combine(field[v], val); nv != field[v] {
				field[v] = nv
				changed.Set(v - lo)
			}
		})
	})
	if err != nil {
		return 0, err
	}

	var bcast []byte
	changed.Range(func(i int) bool {
		bcast = appendRecord(bcast, lo+i, field[lo+i])
		return true
	})
	err = w.AllToAll(comm.KindUpdate, func(int) []byte { return bcast }, func(peer int, payload []byte) error {
		plo, phi := pt.Range(peer)
		return records(payload, plo, phi, func(v int, val uint32) { field[v] = val })
	})
	if err != nil {
		return 0, err
	}
	touched.ClearAll()
	return w.AllReduceSum(int64(changed.Count()))
}

// appendRecord appends one (vertex, value) synchronization record.
func appendRecord(buf []byte, v int, val uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	return binary.LittleEndian.AppendUint32(buf, val)
}

// records hands each (vertex, value) record of payload to fn, rejecting
// a torn record or a vertex outside [lo, hi), the range the sender may
// speak for.
func records(payload []byte, lo, hi int, fn func(v int, val uint32)) error {
	if len(payload)%8 != 0 {
		return fmt.Errorf("gluon: %d-byte record list", len(payload))
	}
	for off := 0; off < len(payload); off += 8 {
		v := int(binary.LittleEndian.Uint32(payload[off:]))
		if v < lo || v >= hi {
			return fmt.Errorf("gluon: record for vertex %d outside [%d,%d)", v, lo, hi)
		}
		fn(v, binary.LittleEndian.Uint32(payload[off+4:]))
	}
	return nil
}
