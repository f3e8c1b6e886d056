package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	coll    comm.Endpoint // ep with every Recv deadlined, for comm's collectives
	layout  *partition.Layout

	tag     int32
	edges   atomic.Int64
	skipped atomic.Int64
	depWait atomic.Int64 // ns blocked waiting for dependency frames
	updWait atomic.Int64 // ns blocked waiting for update messages

	dense denseScratch // dense-pass state reused across steps and passes
	seg   []byte       // this machine's encoded segment, reused across exchanges
	frame [1][]byte    // the one-buffer vector an exchange sends, reused likewise

	tr         *obs.Tracer // nil when tracing is off
	densePass  int         // dense ProcessEdges* passes completed (the tracer's iteration axis)
	sparsePass int
}

// ID returns this machine's node ID.
func (w *Worker) ID() int { return w.id }

// N returns the cluster size p.
func (w *Worker) N() int { return w.cluster.opts.NumNodes }

// Graph returns the full graph. Programs must restrict themselves to
// vertex state they own or have synchronized; the engine's own edge
// access goes through the machine's layout only.
func (w *Worker) Graph() *graph.Graph { return w.cluster.g }

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

// AddEdges accounts k neighbor traversals into the run's EdgesTraversed:
// the engine's passes call it once per scan chunk, and so does a program
// that scans edges itself (the D-Galois baseline's local CSR rounds).
func (w *Worker) AddEdges(k int64) { w.edges.Add(k) }

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

// recv is the one receive a Worker issues, data plane and collectives
// alike. With Options.StallTimeout set it carries a deadline: instead
// of hanging forever behind a slow, partitioned or dead peer, it fails
// with a *StallError naming this node, the phase ph it was in, and the
// awaited stream, and counts in Stats().Stalls.
func (w *Worker) recv(from comm.NodeID, kind comm.Kind, tag int32, ph obs.Phase) (comm.Message, error) {
	timeout := w.cluster.opts.StallTimeout
	m, err := w.ep.RecvTimeout(from, kind, tag, timeout)
	if err != nil { // te escapes: declared here, a good receive allocates nothing
		var te *comm.TimeoutError
		if errors.As(err, &te) {
			w.cluster.stalls.Add(1)
			err = &StallError{Node: w.id, Phase: ph, From: from, Kind: kind, Tag: tag,
				Timeout: timeout, cause: err}
		}
	}
	return m, err
}

// recvTimed is recv for the data plane: it accounts the blocked time
// into the given wait counter — the engine's overlap instrumentation
// (§5.3's "synchronization wait time") — and emits a tracer span of
// phase ph tagged (iter, step, group).
func (w *Worker) recvTimed(counter *atomic.Int64, from comm.NodeID, kind comm.Kind, tag int32,
	ph obs.Phase, iter, step, group int) (comm.Message, error) {
	start := time.Now()
	m, err := w.recv(from, kind, tag, ph)
	d := time.Since(start)
	counter.Add(int64(d))
	if w.tr != nil {
		w.tr.Record(w.id, ph, iter, step, group, start, d)
	}
	return m, err
}

// deadlined is the worker's endpoint as comm's collectives see it: the
// same sends, and a Recv that is the worker's own — deadlined, counted,
// reported as a stall in PhaseBarrier.
type deadlined struct {
	comm.Endpoint
	w *Worker
}

func (d deadlined) Recv(from comm.NodeID, kind comm.Kind, tag int32) (comm.Message, error) {
	return d.w.recv(from, kind, tag, obs.PhaseBarrier)
}

// observeStep announces the next edge-processing pass to the transport:
// fault plans key their crash and partition schedules on this counter,
// making "node 2 dies at superstep 7" a deterministic, replayable event.
func (w *Worker) observeStep() {
	comm.ObserveSuperstep(w.ep, w.densePass+w.sparsePass)
}

// AllReduceSum returns the sum of x across machines. Like every
// collective it is one PhaseBarrier span.
func (w *Worker) AllReduceSum(x int64) (int64, error) {
	t0 := w.spanStart()
	v, err := comm.AllReduceInt64(w.coll, x, w.nextTags(1), func(a, b int64) int64 { return a + b })
	w.endSpan(obs.PhaseBarrier, -1, -1, -1, t0)
	return v, err
}

// everyone is exchange's root for an all-gather.
const everyone = -1

// ownSegment is exchange's seg for the collectives that send every peer
// the same encoded segment, w.seg.
func (w *Worker) ownSegment(int) []byte { return w.seg }

// exchange is the worker's one segment exchange, behind SyncBitmap,
// every gather and AllToAll. seg(peer) is the segment this machine sends
// peer, borrowed for the call; every frame travels as kind. With root ==
// everyone each machine sends to every peer and applies every peer's
// segment; otherwise the peers send to root and root alone applies.
// Every destination is handed a slab copy of its own, and every received
// payload is released once apply returns. A segment apply rejects is a
// *comm.ProtocolError naming the stream. The per-stream demux queues
// make the all-to-all deadlock-free. The whole call is one PhaseBarrier
// span.
func (w *Worker) exchange(root int, kind comm.Kind, seg func(peer int) []byte, apply func(peer int, payload []byte) error) error {
	t0 := w.spanStart()
	defer w.endSpan(obs.PhaseBarrier, -1, -1, -1, t0)
	tag := w.nextTags(1)
	for peer := 0; peer < w.N(); peer++ {
		if peer == w.id || (root != everyone && peer != root) {
			continue
		}
		s := seg(peer)
		w.frame[0] = append(bufpool.Get(len(s))[:0], s...)
		if err := w.ep.SendBufs(comm.NodeID(peer), kind, tag, w.frame[:]); err != nil {
			return err
		}
	}
	if root != everyone && root != w.id {
		return nil
	}
	for peer := 0; peer < w.N(); peer++ {
		if peer == w.id {
			continue
		}
		m, err := w.recv(comm.NodeID(peer), kind, tag, obs.PhaseBarrier)
		if err != nil {
			return err
		}
		err = apply(peer, m.Payload)
		m.Release()
		if err != nil {
			return &comm.ProtocolError{Node: comm.NodeID(w.id), From: comm.NodeID(peer), Kind: kind,
				WantTag: tag, GotTag: tag, Reason: err.Error()}
		}
	}
	return nil
}

// AllToAll is the segment exchange among all machines: seg(peer) is what
// this machine sends peer (borrowed for the call; one segment for every
// peer makes it an all-gather), apply sees every peer's segment to this
// machine — not its own — and must not keep it. The frames travel as
// kind: control for framework agreement such as K-means' re-centering
// minima, update for vertex-label synchronization such as the D-Galois
// baseline's reduce and broadcast.
func (w *Worker) AllToAll(kind comm.Kind, seg func(peer int) []byte, apply func(peer int, payload []byte) error) error {
	return w.exchange(everyone, kind, seg, apply)
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
	w.seg = appendBitmapSegment(w.seg[:0], b, lo, hi)
	return w.exchange(everyone, comm.KindControl, w.ownSegment, func(peer int, payload []byte) error {
		plo, phi := w.cluster.part.Range(peer)
		return applyBitmapSegment(b, plo, phi, payload)
	})
}

// appendBitmapSegment appends bits [lo, hi) of b to out: a 1-byte form
// tag, then either little-endian u32 indices relative to lo (sparse) or
// the covering words (dense), whichever is smaller.
func appendBitmapSegment(out []byte, b *bitset.Bitmap, lo, hi int) []byte {
	count := b.CountSegment(lo, hi)
	denseBytes := ((hi+63)/64 - lo/64) * 8
	out = slices.Grow(out, 1+min(count*4, denseBytes))
	if count*4 < denseBytes {
		out = append(out, segSparse)
		b.RangeSegment(lo, hi, func(v int) bool {
			out = binary.LittleEndian.AppendUint32(out, uint32(v-lo))
			return true
		})
		return out
	}
	return b.AppendSegmentLE(append(out, segDense), lo, hi)
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

// gather exchanges arr (full length |V|) by master segment: machine i
// contributes arr[lo_i:hi_i], and root (or everyone) ends up with every
// master's values. A peer's segment must be exactly its range.
func gather[T Wire](w *Worker, root int, arr []T) error {
	if len(arr) != w.cluster.g.NumVertices() {
		panic("core: gather wants a full-length array")
	}
	c := codecOf[T]()
	lo, hi := w.MasterRange()
	w.seg = slices.Grow(w.seg[:0], (hi-lo)*c.size)[:(hi-lo)*c.size]
	c.putAll(w.seg, arr[lo:hi])
	return w.exchange(root, comm.KindControl, w.ownSegment, func(peer int, payload []byte) error {
		plo, phi := w.cluster.part.Range(peer)
		if len(payload) != (phi-plo)*c.size {
			return fmt.Errorf("core: segment of [%d,%d) is %d bytes, want %d", plo, phi, len(payload), (phi-plo)*c.size)
		}
		c.getAll(arr[plo:phi], payload)
		return nil
	})
}

// Gather collects every master's value of arr at node 0, which is where
// algorithms materialize their results (other nodes' copies stay
// partial). Far cheaper than AllGather for result publication.
func Gather[T Wire](w *Worker, arr []T) error { return gather(w, 0, arr) }

// AllGather fills arr so that every machine sees every master's value.
// Used to publish results and replicated vertex properties.
func AllGather[T Wire](w *Worker, arr []T) error { return gather(w, everyone, arr) }

// ProcessVertices applies fn to every owned master vertex (in parallel
// across the machine's workers) and returns this machine's sum of fn's
// results. It is no collective: a program that needs the global sum
// reduces it with AllReduceSum.
func (w *Worker) ProcessVertices(fn func(v graph.VertexID) int64) int64 {
	lo, hi := w.MasterRange()
	var local atomic.Int64
	w.parallelRange(hi-lo, func(_, start, end int) {
		var acc int64
		for v := lo + start; v < lo+end; v++ {
			acc += fn(graph.VertexID(v))
		}
		local.Add(acc)
	})
	return local.Load()
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
