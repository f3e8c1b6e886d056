package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Worker is one machine's view of a running program: its endpoint, its
// share of the graph, and helpers for vertex iteration and collective
// communication. A Worker is only valid inside the program passed to
// Cluster.Run and must not be shared across program invocations.
//
// All workers of a run execute the same program (SPMD); every collective
// helper and every ProcessEdges* call must therefore be reached by all
// workers in the same order.
type Worker struct {
	cluster *Cluster
	id      int
	ep      comm.Endpoint
	layout  *partition.Layout

	tag     int32
	edges   atomic.Int64
	skipped atomic.Int64
	depWait atomic.Int64 // ns blocked waiting for dependency frames
	updWait atomic.Int64 // ns blocked waiting for update messages

	dense denseScratch // dense-pass state reused across steps and passes

	tr         *obs.Tracer // nil when tracing is off
	densePass  int         // dense ProcessEdges* passes completed (the tracer's iteration axis)
	sparsePass int
}

// ID returns this machine's node ID.
func (w *Worker) ID() int { return w.id }

// N returns the cluster size p.
func (w *Worker) N() int { return w.cluster.opts.NumNodes }

// Mode returns the cluster's execution mode.
func (w *Worker) Mode() Mode { return w.cluster.opts.Mode }

// Options returns the cluster's configuration.
func (w *Worker) Options() Options { return w.cluster.opts }

// Graph returns the full graph. Programs must restrict themselves to
// vertex state they own or have synchronized; the engine's own edge
// access goes through the machine's layout only.
func (w *Worker) Graph() *graph.Graph { return w.cluster.g }

// Part returns the vertex partition.
func (w *Worker) Part() *partition.Partition { return w.cluster.part }

// MasterRange returns this machine's owned vertex range [lo, hi).
func (w *Worker) MasterRange() (lo, hi int) { return w.cluster.part.Range(w.id) }

// Owns reports whether v's master copy lives on this machine.
func (w *Worker) Owns(v graph.VertexID) bool {
	lo, hi := w.MasterRange()
	return int(v) >= lo && int(v) < hi
}

// nextTags reserves k consecutive tags and returns the first. Tag streams
// stay aligned across workers because programs are SPMD.
func (w *Worker) nextTags(k int32) int32 {
	t := w.tag
	w.tag += k
	return t
}

// addEdges accounts k neighbor traversals.
func (w *Worker) addEdges(k int64) { w.edges.Add(k) }

// addSkipped accounts k dependency-skipped signal executions.
func (w *Worker) addSkipped(k int64) { w.skipped.Add(k) }

// spanStart marks the beginning of a traced span; zero when tracing is
// off (endSpan then ignores it).
func (w *Worker) spanStart() time.Time {
	if w.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// endSpan records a span that began at start. iter/step/group may be -1
// when the dimension does not apply.
func (w *Worker) endSpan(ph obs.Phase, iter, step, group int, start time.Time) {
	if w.tr == nil {
		return
	}
	w.tr.Record(w.id, ph, iter, step, group, start, time.Since(start))
}

// recvTimed performs a receive and accounts the blocked time into the
// given wait counter — the engine's overlap instrumentation (§5.3's
// "synchronization wait time") — and emits a tracer span of phase ph
// tagged (iter, step, group). With Options.StallTimeout set, the receive
// carries a deadline: instead of hanging forever behind a slow or dead
// peer, it fails fast with a *StallError naming this node, the phase,
// and the awaited stream.
func (w *Worker) recvTimed(counter *atomic.Int64, from comm.NodeID, kind comm.Kind, tag int32,
	ph obs.Phase, iter, step, group int) (comm.Message, error) {
	start := time.Now()
	timeout := w.cluster.opts.StallTimeout
	m, err := comm.RecvTimeout(w.ep, from, kind, tag, timeout)
	if err != nil { // te escapes: declared here, a good receive allocates nothing
		var te *comm.TimeoutError
		if errors.As(err, &te) {
			w.cluster.stalls.Add(1)
			err = &StallError{Node: w.id, Phase: ph, From: from, Kind: kind, Tag: tag,
				Timeout: timeout, cause: err}
		}
	}
	d := time.Since(start)
	counter.Add(int64(d))
	if w.tr != nil {
		w.tr.Record(w.id, ph, iter, step, group, start, d)
	}
	return m, err
}

// observeStep announces the next edge-processing pass to the transport:
// fault plans key their crash and partition schedules on this counter,
// making "node 2 dies at superstep 7" a deterministic, replayable event.
func (w *Worker) observeStep() {
	comm.ObserveSuperstep(w.ep, w.densePass+w.sparsePass)
}

// Barrier blocks until all machines reach it.
func (w *Worker) Barrier() error {
	t0 := w.spanStart()
	err := comm.Barrier(w.ep, w.nextTags(1))
	w.endSpan(obs.PhaseBarrier, -1, -1, -1, t0)
	return err
}

// AllReduceInt64 combines x across machines with op (associative and
// commutative) and returns the result everywhere.
func (w *Worker) AllReduceInt64(x int64, op func(a, b int64) int64) (int64, error) {
	return comm.AllReduceInt64(w.ep, x, w.nextTags(1), op)
}

// AllReduceSum returns the sum of x across machines.
func (w *Worker) AllReduceSum(x int64) (int64, error) {
	return w.AllReduceInt64(x, func(a, b int64) int64 { return a + b })
}

// AllReduceBool ORs x across machines.
func (w *Worker) AllReduceBool(x bool) (bool, error) {
	return comm.AllReduceBool(w.ep, x, w.nextTags(1))
}

// SyncBitmap merges each machine's master segment of b into every
// machine's copy: after the call, all machines agree on b. This is how
// replicated per-vertex flags (frontier, visited, active) are refreshed
// between iterations; the traffic is accounted as control communication,
// identically in every mode.
//
// Each segment travels in Ligra-style adaptive form: a sparse index list
// when few bits are set (the common case for shrinking frontiers), dense
// words otherwise.
func (w *Worker) SyncBitmap(b *bitset.Bitmap) error {
	if b.Len() != w.cluster.g.NumVertices() {
		panic("core: SyncBitmap wants a full-length bitmap")
	}
	lo, hi := w.MasterRange()
	blob := encodeBitmapSegment(b, lo, hi)
	all, err := comm.AllGatherBytes(w.ep, blob, w.nextTags(1))
	if err != nil {
		return err
	}
	for peer, payload := range all {
		if peer == w.id {
			continue
		}
		plo, phi := w.cluster.part.Range(peer)
		if err := applyBitmapSegment(b, plo, phi, payload); err != nil {
			return err
		}
	}
	return nil
}

// encodeBitmapSegment serializes bits [lo, hi) of b: a 1-byte form tag,
// then either little-endian u32 indices relative to lo (sparse) or the
// covering words (dense), whichever is smaller.
func encodeBitmapSegment(b *bitset.Bitmap, lo, hi int) []byte {
	count := b.CountSegment(lo, hi)
	denseBytes := ((hi+63)/64 - lo/64) * 8
	if count*4 < denseBytes {
		out := make([]byte, 1, 1+count*4)
		out[0] = segSparse
		b.RangeSegment(lo, hi, func(v int) bool {
			out = binary.LittleEndian.AppendUint32(out, uint32(v-lo))
			return true
		})
		return out
	}
	out := make([]byte, 1, 1+denseBytes)
	out[0] = segDense
	return b.AppendSegmentLE(out, lo, hi)
}

const (
	segSparse = 0x01
	segDense  = 0x02
)

// applyBitmapSegment ORs a received segment for [lo, hi) into b.
func applyBitmapSegment(b *bitset.Bitmap, lo, hi int, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("core: empty bitmap segment")
	}
	body := payload[1:]
	switch payload[0] {
	case segSparse:
		if len(body)%4 != 0 {
			return fmt.Errorf("core: sparse segment length %d", len(body))
		}
		for off := 0; off < len(body); off += 4 {
			v := lo + int(binary.LittleEndian.Uint32(body[off:]))
			if v < lo || v >= hi {
				return fmt.Errorf("core: sparse segment index %d outside [%d,%d)", v, lo, hi)
			}
			b.Set(v)
		}
	case segDense:
		if err := b.OrSegmentLE(body, lo, hi); err != nil {
			return fmt.Errorf("core: dense segment: %w", err)
		}
	default:
		return fmt.Errorf("core: unknown segment form %d", payload[0])
	}
	return nil
}

// GatherU32 collects every master's value of arr at node 0, which is
// where algorithms materialize their results (other nodes' copies stay
// partial). Far cheaper than AllGatherU32 for result publication.
func (w *Worker) GatherU32(arr []uint32) error {
	if len(arr) != w.cluster.g.NumVertices() {
		panic("core: GatherU32 wants a full-length array")
	}
	tag := w.nextTags(1)
	lo, hi := w.MasterRange()
	if w.id != 0 {
		blob := bufpool.Get((hi - lo) * 4)
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint32(blob[(i-lo)*4:], arr[i])
		}
		return w.ep.SendBufs(0, comm.KindControl, tag, comm.Buffers{blob})
	}
	for peer := 1; peer < w.N(); peer++ {
		m, err := w.ep.Recv(comm.NodeID(peer), comm.KindControl, tag)
		if err != nil {
			return err
		}
		plo := w.cluster.part.Starts[peer]
		for off := 0; off+4 <= len(m.Payload); off += 4 {
			arr[plo+off/4] = binary.LittleEndian.Uint32(m.Payload[off:])
		}
		m.Release()
	}
	return nil
}

// AllGatherU32 fills arr (full length |V|) so that every machine sees
// every master's value: machine i contributes arr[lo_i:hi_i]. Used to
// publish results and replicated vertex properties.
func (w *Worker) AllGatherU32(arr []uint32) error {
	if len(arr) != w.cluster.g.NumVertices() {
		panic("core: AllGatherU32 wants a full-length array")
	}
	lo, hi := w.MasterRange()
	blob := make([]byte, (hi-lo)*4)
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint32(blob[(i-lo)*4:], arr[i])
	}
	all, err := comm.AllGatherBytes(w.ep, blob, w.nextTags(1))
	if err != nil {
		return err
	}
	for peer, payload := range all {
		if peer == w.id {
			continue
		}
		plo := w.cluster.part.Starts[peer]
		for off := 0; off+4 <= len(payload); off += 4 {
			arr[plo+off/4] = binary.LittleEndian.Uint32(payload[off:])
		}
	}
	return nil
}

// AllGatherF64 is AllGatherU32 for float64 arrays.
func (w *Worker) AllGatherF64(arr []float64) error {
	if len(arr) != w.cluster.g.NumVertices() {
		panic("core: AllGatherF64 wants a full-length array")
	}
	lo, hi := w.MasterRange()
	blob := make([]byte, (hi-lo)*8)
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint64(blob[(i-lo)*8:], math.Float64bits(arr[i]))
	}
	all, err := comm.AllGatherBytes(w.ep, blob, w.nextTags(1))
	if err != nil {
		return err
	}
	for peer, payload := range all {
		if peer == w.id {
			continue
		}
		plo := w.cluster.part.Starts[peer]
		for off := 0; off+8 <= len(payload); off += 8 {
			arr[plo+off/8] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		}
	}
	return nil
}

// AllGatherBlob exchanges an arbitrary per-node byte blob: the result is
// indexed by node ID and includes this node's own blob (aliased, not
// copied). Used by algorithms for custom reductions such as K-means
// re-centering.
func (w *Worker) AllGatherBlob(blob []byte) ([][]byte, error) {
	return comm.AllGatherBytes(w.ep, blob, w.nextTags(1))
}

// ProcessVertices applies fn to every owned master vertex (in parallel
// across the machine's workers) and returns the global sum of fn's
// results across all machines.
func (w *Worker) ProcessVertices(fn func(v graph.VertexID) int64) (int64, error) {
	lo, hi := w.MasterRange()
	var local atomic.Int64
	w.parallelRange(hi-lo, func(_, start, end int) {
		var acc int64
		for v := lo + start; v < lo+end; v++ {
			acc += fn(graph.VertexID(v))
		}
		local.Add(acc)
	})
	return w.AllReduceSum(local.Load())
}

// serial reports whether parallelRange runs n items inline.
func (w *Worker) serial(n int) bool {
	nw := w.cluster.opts.Workers
	return nw <= 1 || n < 2*nw
}

// parallelRange splits [0, n) into at most Options.Workers chunks and
// runs fn on each concurrently, passing the chunk's index k. With
// Workers == 1 it runs inline.
func (w *Worker) parallelRange(n int, fn func(k, start, end int)) {
	if w.serial(n) {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	nw := w.cluster.opts.Workers
	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for k := 0; k*chunk < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k, k*chunk, min(k*chunk+chunk, n))
		}(k)
	}
	wg.Wait()
}
