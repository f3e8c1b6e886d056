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
// This reproduces the paper's observation that D-Galois, tuned for
// 128–256-node scale, loses to Gemini and SympleGraph on small clusters
// where its heavier synchronization dominates (Tables 4 and 7,
// Figure 10). Graph sampling is intentionally absent, as it is in
// D-Galois ("Graph sampling implementation is not available", §7.1).
package gluon

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Engine is a Gluon-style cluster over a partitioned graph.
type Engine struct {
	g         *graph.Graph
	pt        *partition.Partition
	kind      PartitionKind
	local     []*localCSR
	endpoints []comm.Endpoint
	mem       *comm.MemCluster

	statsMu   sync.Mutex
	lastStats Stats
}

// Stats aggregates one Run's work and traffic.
type Stats struct {
	EdgesTraversed int64
	SyncBytes      int64
	ControlBytes   int64
}

// TotalBytes returns all sent traffic.
func (s Stats) TotalBytes() int64 { return s.SyncBytes + s.ControlBytes }

// New creates a Gluon engine over p machines with instant delivery and
// the default Cartesian vertex-cut.
func New(g *graph.Graph, p int) (*Engine, error) { return NewWithLink(g, p, nil) }

// NewWithLink creates a Gluon engine whose in-memory transport simulates
// the given interconnect (nil = instant), with the default Cartesian
// vertex-cut.
func NewWithLink(g *graph.Graph, p int, link *comm.LinkModel) (*Engine, error) {
	return NewWithOptions(g, p, link, PartitionCVC)
}

// NewWithOptions additionally selects the edge partition.
func NewWithOptions(g *graph.Graph, p int, link *comm.LinkModel, kind PartitionKind) (*Engine, error) {
	pt, err := partition.NewChunked(g, p, 0)
	if err != nil {
		return nil, err
	}
	e := &Engine{g: g, pt: pt, kind: kind}
	e.local = buildLocalCSRs(g, func(v graph.VertexID) int { return pt.Owner(v) }, p, kind)
	e.mem = comm.NewMemClusterWithLink(p, link)
	e.endpoints = e.mem.Endpoints()
	return e, nil
}

// PartitionKindUsed returns the engine's edge partition.
func (e *Engine) PartitionKindUsed() PartitionKind { return e.kind }

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Close releases the transport.
func (e *Engine) Close() error { return e.mem.Close() }

// LastRunStats returns statistics for the most recent Run.
func (e *Engine) LastRunStats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.lastStats
}

// Worker is one machine's view inside Run.
type Worker struct {
	engine *Engine
	id     int
	ep     comm.Endpoint
	tag    int32
	edges  int64
}

// ID returns the machine's node ID.
func (w *Worker) ID() int { return w.id }

// N returns the cluster size.
func (w *Worker) N() int { return w.engine.pt.P }

// Graph returns the engine's graph.
func (w *Worker) Graph() *graph.Graph { return w.engine.g }

// MasterRange returns the owned vertex range.
func (w *Worker) MasterRange() (int, int) { return w.engine.pt.Range(w.id) }

// CountEdge accounts one local edge traversal.
func (w *Worker) CountEdge() { w.edges++ }

// Local returns this machine's edge share.
func (w *Worker) Local() *localCSR { return w.engine.local[w.id] }

func (w *Worker) nextTags(k int32) int32 {
	t := w.tag
	w.tag += k
	return t
}

// AllReduceSum reduces a sum across machines.
func (w *Worker) AllReduceSum(x int64) (int64, error) {
	return comm.AllReduceInt64(w.ep, x, w.nextTags(1), func(a, b int64) int64 { return a + b })
}

// Run executes prog on every machine concurrently, like core.Cluster.Run.
func (e *Engine) Run(prog func(w *Worker) error) error {
	p := e.pt.P
	before := make([]int64, p)
	beforeCtl := make([]int64, p)
	for i, ep := range e.endpoints {
		before[i] = ep.Stats().SentBytes(comm.KindUpdate)
		beforeCtl[i] = ep.Stats().SentBytes(comm.KindControl)
	}
	workers := make([]*Worker, p)
	errs := make([]error, p)
	done := make(chan int, p)
	for i := 0; i < p; i++ {
		workers[i] = &Worker{engine: e, id: i, ep: e.endpoints[i]}
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("gluon: node %d panicked: %v", i, r)
				}
				done <- i
			}()
			errs[i] = prog(workers[i])
		}(i)
	}
	poisoned := false
	for k := 0; k < p; k++ {
		i := <-done
		if errs[i] != nil && !poisoned {
			poisoned = true
			for _, ep := range e.endpoints {
				ep.Close()
			}
		}
	}
	var stats Stats
	for i, ep := range e.endpoints {
		stats.EdgesTraversed += workers[i].edges
		stats.SyncBytes += ep.Stats().SentBytes(comm.KindUpdate) - before[i]
		stats.ControlBytes += ep.Stats().SentBytes(comm.KindControl) - beforeCtl[i]
	}
	e.statsMu.Lock()
	e.lastStats = stats
	e.statsMu.Unlock()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncReduceBroadcastU32 is the Gluon synchronization primitive for a
// uint32 vertex field: every machine sends (vertex, value) for the
// non-owned vertices it touched this round to their owners; owners fold
// the values into the field with combine; owners then broadcast every
// master value that changed (or received a reduction) to all other
// machines, which overwrite their proxies. `touched` is cleared on
// return. The returned count is the number of master vertices whose value
// changed globally this round.
func (w *Worker) SyncReduceBroadcastU32(field []uint32, touched *bitset.Bitmap, combine func(a, b uint32) uint32) (int64, error) {
	p := w.N()
	base := w.nextTags(2)
	lo, hi := w.MasterRange()
	pt := w.engine.pt

	// Reduce phase: route touched non-owned entries to owners. Each
	// owner's buffer is handed to the transport outright.
	bufs := make([][]byte, p)
	touched.Range(func(v int) bool {
		owner := pt.Owner(graph.VertexID(v))
		if owner == w.id {
			return true
		}
		bufs[owner] = appendRecord(bufs[owner], v, field[v])
		return true
	})
	for peer := 0; peer < p; peer++ {
		if peer == w.id {
			continue
		}
		if err := w.ep.SendBufs(comm.NodeID(peer), comm.KindUpdate, base, comm.Buffers{bufs[peer]}); err != nil {
			return 0, err
		}
	}
	changedMasters := bitset.New(hi - lo)
	touched.RangeSegment(lo, hi, func(v int) bool { changedMasters.Set(v - lo); return true })
	for peer := 0; peer < p; peer++ {
		if peer == w.id {
			continue
		}
		m, err := w.ep.Recv(comm.NodeID(peer), comm.KindUpdate, base)
		if err != nil {
			return 0, err
		}
		for off := 0; off+8 <= len(m.Payload); off += 8 {
			v := int(binary.LittleEndian.Uint32(m.Payload[off:]))
			val := binary.LittleEndian.Uint32(m.Payload[off+4:])
			if v < lo || v >= hi {
				return 0, fmt.Errorf("gluon: reduced vertex %d not owned by %d", v, w.id)
			}
			if nv := combine(field[v], val); nv != field[v] {
				field[v] = nv
				changedMasters.Set(v - lo)
			}
		}
		m.Release()
	}

	// Broadcast phase: publish changed master values to every machine,
	// each of which gets (and later releases) a copy of its own.
	var bcast []byte
	changedMasters.Range(func(i int) bool {
		bcast = appendRecord(bcast, lo+i, field[lo+i])
		return true
	})
	for peer := 0; peer < p; peer++ {
		if peer == w.id {
			continue
		}
		clone := append(bufpool.Get(len(bcast))[:0], bcast...)
		if err := w.ep.SendBufs(comm.NodeID(peer), comm.KindUpdate, base+1, comm.Buffers{clone}); err != nil {
			return 0, err
		}
	}
	for peer := 0; peer < p; peer++ {
		if peer == w.id {
			continue
		}
		m, err := w.ep.Recv(comm.NodeID(peer), comm.KindUpdate, base+1)
		if err != nil {
			return 0, err
		}
		for off := 0; off+8 <= len(m.Payload); off += 8 {
			v := int(binary.LittleEndian.Uint32(m.Payload[off:]))
			field[v] = binary.LittleEndian.Uint32(m.Payload[off+4:])
		}
		m.Release()
	}
	touched.ClearAll()
	return w.AllReduceSum(int64(changedMasters.Count()))
}

// appendRecord appends one (vertex, value) synchronization record.
func appendRecord(buf []byte, v int, val uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	return binary.LittleEndian.AppendUint32(buf, val)
}
