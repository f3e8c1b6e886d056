package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// DenseParams configure one dense (pull-mode) edge-processing pass — the
// paper's signal/slot in pull mode (Figure 4), with dependency enforcement
// when the cluster runs in ModeSympleGraph.
type DenseParams[M Wire] struct {
	// Active and Except filter destination vertices: a destination is
	// visited only if its bit is set in Active (nil visits all) and clear
	// in Except (nil skips none) — "still active", "not yet visited".
	// Both are replicated |V|-bitmaps, tested inline on the processing
	// machine, and must not change during the pass (slots record into a
	// separate bitmap that is merged afterwards). The filter is applied
	// before the dependency skip test — a filtered destination counts as
	// neither visited nor skipped — and, identically, in the Finalize
	// sweep. A bitmap of any other length is an error.
	Active, Except *bitset.Bitmap
	// Signal is the dense-signal UDF, executed once per (destination,
	// block): it scans the destination's incoming neighbors local to
	// the machine, calling ctx.Edge per neighbor examined, ctx.Emit to
	// send a partial result to the master, and ctx.EmitDep when the
	// loop-carried break condition fires.
	Signal func(ctx *DenseCtx[M], dst graph.VertexID, srcs []graph.VertexID, weights []float32)
	// Slot aggregates one update at the destination's master (it runs
	// only there). It must be commutative and associative across messages
	// for the same destination.
	Slot func(dst graph.VertexID, msg M)
	// Finalize, when non-nil, is called at the master for every tracked
	// destination of its own partition after the circulant ring
	// completes, with the final carried dependency state (skip bit and
	// data lanes). This is where algorithms with data dependency read
	// the fully accumulated value — e.g. Sampling's setup pass stores
	// the carried weight sum W_v of each vertex. It is invoked only
	// when dependency propagates; UDFs must emit ordinary updates for
	// untracked vertices instead, which also covers every pass where
	// ctx.Tracked reports false.
	Finalize func(dst graph.VertexID, skip bool, data []float64)
	// Breaks and Lanes declare what the pass carries, and sgvet's
	// depbreak holds them to Signal: Breaks that it may call ctx.EmitDep
	// (skip bits), Lanes how many float64 lanes per tracked vertex it
	// reads and writes (Sampling's weight and prefix sums). Dependency
	// propagates only for a pass declaring one, in ModeSympleGraph at
	// p > 1; one declaring neither (PageRank) runs as in ModeGemini.
	Breaks bool
	Lanes  int
}

// emitChunkBytes is the slab chunk size for update assembly: signal
// contexts fill fixed-capacity chunks from internal/bufpool and flush
// them into the step's buffer list when full, so a superstep's update
// traffic is assembled with zero garbage-collected allocations and sent
// vectored (no concatenation) through comm.SendBufs.
const emitChunkBytes = 64 << 10

// DenseCtx is the per-worker signal context, made once per pass. It
// carries the update buffer, traversal counters, and — in SympleGraph mode
// — the dependency state of the destination being processed (the
// engine-side realization of the paper's receive_dep/emit_dep primitives,
// Figure 5).
type DenseCtx[M Wire] struct {
	codec *codec[M]
	rec   int    // record width: the 4-byte destination, then the message
	buf   []byte // the open emit chunk: fixed capacity, from bufpool
	sc    *denseScratch

	edges   int64
	skipped int64

	tracked  bool // dependency state propagates for curDst
	trackIdx int32
	curDst   graph.VertexID
	depBreak bool
}

// denseScratch is the engine-side state of a dense pass. It lives on the
// Worker, so steps and passes reuse it instead of allocating per step.
// The rule that makes the reuse safe: only the containers are kept — a
// buffer handed to SendBufs belongs to the transport and one parked for
// the local apply goes back to the slab, so bins is truncated, never
// rewritten in place, and every list entry is a fresh slab chunk.
type denseScratch struct {
	// skip and data are the dependency state of the step in flight,
	// cleared at its start (skip is sized for the largest tracked set and
	// addressed by explicit bounds); after the last step — the worker's
	// own partition — they hold its fully circulated state.
	skip *bitset.Bitmap
	data [][]float64
	lane []float64 // Finalize's view of one vertex

	mu   sync.Mutex
	bins [][]byte // the step's update buffers
}

// beginStep zeroes the dependency state for a step over `tracked`
// vertices.
func (sc *denseScratch) beginStep(class *partition.DegreeClass, tracked, lanes int) {
	if sc.skip == nil {
		most := 0
		for _, highs := range class.Highs {
			most = max(most, len(highs))
		}
		sc.skip = bitset.New(most)
	}
	sc.skip.ClearAll()
	if len(sc.data) != lanes {
		sc.data, sc.lane = make([][]float64, lanes), make([]float64, lanes)
	}
	for l := range sc.data {
		if cap(sc.data[l]) < tracked {
			sc.data[l] = make([]float64, tracked)
		}
		sc.data[l] = sc.data[l][:tracked]
		clear(sc.data[l])
	}
}

// Edge records one neighbor traversal (the paper's computation metric).
// Instrumented UDFs call it once per neighbor examined.
func (ctx *DenseCtx[M]) Edge() { ctx.edges++ }

// Emit sends msg for the current destination to its master's slot.
// The record is written in place: the chunk is extended by its width and
// every byte of it is then stored, so nothing zero-fills it first.
func (ctx *DenseCtx[M]) Emit(msg M) {
	if cap(ctx.buf)-len(ctx.buf) < ctx.rec {
		ctx.flushChunk()
	}
	off := len(ctx.buf)
	ctx.buf = ctx.buf[:off+ctx.rec]
	binary.LittleEndian.PutUint32(ctx.buf[off:], uint32(ctx.curDst))
	ctx.codec.put(ctx.buf[off+4:], msg)
}

// flushChunk retires the current emit chunk — into the step's buffer
// list when it holds records, back to the slab when untouched — and
// starts a fresh one. Chunks hold whole records only, so the eventual
// vectored frame decodes identically to a concatenated payload.
func (ctx *DenseCtx[M]) flushChunk() {
	if len(ctx.buf) > 0 {
		ctx.sc.mu.Lock()
		ctx.sc.bins = append(ctx.sc.bins, ctx.buf)
		ctx.sc.mu.Unlock()
	} else if ctx.buf != nil {
		bufpool.Put(ctx.buf)
	}
	ctx.buf = bufpool.Get(emitChunkBytes)[:0]
}

// EmitDep marks the loop-carried break: all following neighbors of the
// current destination — on this machine (the UDF breaks) and on machines
// later in the circulant ring (the engine propagates the bit) — are
// skipped. It has no cross-machine effect for untracked vertices or in a
// pass that does not declare Breaks; the UDF's local break still applies.
func (ctx *DenseCtx[M]) EmitDep() { ctx.depBreak = true }

// Tracked reports whether dependency state propagates across machines for
// the current destination: never where DenseParams says it does not
// propagate. UDFs with data dependency use it to fall back to a
// parallel-decomposable path (e.g. hierarchical sampling) when the
// carried state is unavailable.
func (ctx *DenseCtx[M]) Tracked() bool { return ctx.tracked }

// DepFloat returns the carried data-dependency value of lane for the
// current destination, accumulated by machines earlier in the ring; 0 for
// untracked destinations and at the ring head.
func (ctx *DenseCtx[M]) DepFloat(lane int) float64 {
	if !ctx.Tracked() {
		return 0
	}
	return ctx.sc.data[lane][ctx.trackIdx]
}

// SetDepFloat stores the data-dependency value handed to machines later
// in the ring. A no-op for untracked destinations.
func (ctx *DenseCtx[M]) SetDepFloat(lane int, v float64) {
	if !ctx.Tracked() {
		return
	}
	ctx.sc.data[lane][ctx.trackIdx] = v
}

// ProcessEdgesDense runs one dense pass under the cluster's mode and ends
// in no collective: programs agree afterwards through a bitmap their
// slots filled. (It returns no count: a step's update frame leaves before
// its sender has scanned later blocks.)
//
// The pass executes the circulant schedule (paper §5.1): in step j this
// machine processes the block destined to partition (id+1+j) mod p.
// Untracked (low-degree) destinations are processed at step start — they
// need no dependency input, so their computation overlaps the
// predecessor's work (§5.3's low/high overlap). Tracked destinations are
// scanned in NumBuffers ranges of the tracked index space (groupCut):
// each non-empty range's dependency segment is received from the right
// neighbor just before the range and leaves for the left neighbor right
// after it, while the next range scans (§5.3 double buffering, §6's
// generalization to more buffers). Sender and receiver derive the same
// cuts from (len(Highs[d]), NumBuffers); a block whose destination
// partition tracks nothing exchanges no dependency frame at all. With
// NumBuffers = 1 a step's dependency state travels as a single frame.
//
// A step's update records accumulate into slab bins (filled per worker,
// no intermediate concatenation) and leave as one vectored frame per
// step — bin ownership passes to the transport at SendBufs and the
// buffers must not be touched after (DESIGN.md §5.2). The update destined
// to this machine for the same step is received and slotted after the
// last step. DenseStep splits into traced sub-phases: DenseScan (signal
// loops), DenseBin (dependency-segment assembly), DenseFlush (vectored
// hand-off).
func ProcessEdgesDense[M Wire](w *Worker, params DenseParams[M]) error {
	p := w.N()
	opts := w.cluster.opts
	if params.Lanes < 0 {
		return fmt.Errorf("core: negative Lanes %d", params.Lanes)
	}
	for _, f := range []*bitset.Bitmap{params.Active, params.Except} {
		if n := w.cluster.g.NumVertices(); f != nil && f.Len() != n {
			return fmt.Errorf("core: destination filter holds %d bits, the graph has %d vertices", f.Len(), n)
		}
	}
	depOn := opts.Mode == ModeSympleGraph && p > 1 && (params.Breaks || params.Lanes > 0)
	B := opts.NumBuffers
	if !depOn {
		B = 1 // nothing circulates, so nothing to pipeline
	}
	sc := &w.dense
	c := codecOf[M]()
	ctxs := make([]DenseCtx[M], opts.Workers)
	for k := range ctxs {
		ctxs[k] = DenseCtx[M]{codec: c, rec: 4 + c.size, sc: sc}
	}
	base := w.nextTags(int32(p*B + p)) // p*B dependency segments + p update rounds
	rn := (w.id + 1) % p
	ln := (w.id - 1 + p) % p
	w.observeStep()
	pass := w.densePass
	w.densePass++

	for j := 0; j < p; j++ {
		stepStart := w.spanStart()
		d := (w.id + 1 + j) % p
		block := w.layout.Blocks[d]
		tracked := len(w.cluster.class.Highs[d])
		sc.bins = sc.bins[:0]
		if depOn {
			sc.beginStep(w.cluster.class, tracked, params.Lanes)
		}

		// Low-degree destinations first: no dependency input needed, so
		// this computation overlaps the predecessor still working on the
		// ranges we are about to wait for.
		scanStart := w.spanStart()
		scanDests(w, &params, ctxs, block.Low, false)
		w.endSpan(obs.PhaseDenseScan, pass, j, 0, scanStart)

		rest := block.Tracked // ascending by tracked index: a range is a prefix
		for g := 0; g < B; g++ {
			lo, hi := groupCut(tracked, B, g), groupCut(tracked, B, g+1)
			if lo == hi {
				continue
			}
			wHi := lo // skip words cover [lo, wHi): none unless the pass breaks
			if params.Breaks {
				wHi = hi
			}
			if depOn && j > 0 {
				m, err := w.recvTimed(&w.depWait, comm.NodeID(rn), comm.KindDependency, base+int32((j-1)*B+g),
					obs.PhaseDepWait, pass, j, g)
				if err != nil {
					return err
				}
				if err := applyDepFrame(m.Payload, sc.skip, sc.data, lo, wHi, hi); err != nil {
					return err
				}
				m.Release()
			}
			n := len(rest) // the last range takes the remainder
			if g < B-1 {
				n = sort.Search(len(rest), func(i int) bool { return int(w.cluster.class.TrackIndex[rest[i].Dst]) >= hi })
			}
			if n > 0 {
				scanStart = w.spanStart()
				scanDests(w, &params, ctxs, rest[:n], depOn)
				w.endSpan(obs.PhaseDenseScan, pass, j, g+1, scanStart)
				rest = rest[n:]
			}
			if depOn && j < p-1 {
				binStart := w.spanStart()
				frame := encodeDepFrame(sc.skip, sc.data, lo, wHi, hi)
				w.endSpan(obs.PhaseDenseBin, pass, j, g, binStart)
				flushStart := w.spanStart()
				if err := w.ep.SendBufs(comm.NodeID(ln), comm.KindDependency, base+int32(j*B+g), comm.Buffers{frame}); err != nil {
					return err
				}
				w.endSpan(obs.PhaseDenseFlush, pass, j, g, flushStart)
			}
		}

		endStep(ctxs)
		if d != w.id {
			// Vectored hand-off: the step's bins leave as one frame with
			// no intermediate concatenation and return to the slab; bin
			// ownership passes to the transport here.
			flushStart := w.spanStart()
			if err := w.ep.SendBufs(comm.NodeID(d), comm.KindUpdate, base+int32(p*B+j), comm.Buffers(sc.bins)); err != nil {
				return err
			}
			w.endSpan(obs.PhaseDenseFlush, pass, j, -1, flushStart)
		}
		w.endSpan(obs.PhaseDenseStep, pass, j, -1, stepStart)
	}
	return finishDensePass(w, &params, ctxs, depOn, base+int32(p*B), pass)
}

// finishDensePass is the tail of a dense pass. Update communication
// overlaps with computation (§5.1: "the computation and update
// communication of each step can be largely overlapped"): the per-step
// messages were sent as each block finished; they are collected and
// slotted only now that all steps are done, in ring order so first-wins
// slots stay deterministic. The last step was the worker's own block,
// whose chunks are still in the step's buffer list (chunks hold whole
// records, so per-chunk application equals applying the concatenation).
// Then the Finalize sweep over the fully circulated dependency state of
// the worker's own partition.
func finishDensePass[M Wire](w *Worker, params *DenseParams[M], ctxs []DenseCtx[M], depOn bool, updBase int32, pass int) error {
	p := w.N()
	sc := &w.dense
	for k := range ctxs {
		w.AddEdges(ctxs[k].edges)
		w.addSkipped(ctxs[k].skipped)
		if ctxs[k].buf != nil {
			bufpool.Put(ctxs[k].buf)
		}
	}
	for j := 0; j < p; j++ {
		src := ((w.id-1-j)%p + p) % p
		if src == w.id {
			if err := applyOwn(w, ctxs[0].codec, params.Slot, sc.bins); err != nil {
				return updateError(w, src, updBase+int32(j), err)
			}
			continue
		}
		m, err := w.recvTimed(&w.updWait, comm.NodeID(src), comm.KindUpdate, updBase+int32(j),
			obs.PhaseUpdateWait, pass, j, -1)
		if err != nil {
			return err
		}
		err = applyUpdates(w, ctxs[0].codec, params.Slot, m.Payload)
		m.Release()
		if err != nil {
			return updateError(w, src, updBase+int32(j), err)
		}
	}
	if depOn && params.Finalize != nil {
		for idx, dst := range w.cluster.class.Highs[w.id] {
			if (params.Active != nil && !params.Active.Get(int(dst))) || (params.Except != nil && params.Except.Get(int(dst))) {
				continue // the scan's filter, applied identically
			}
			for l := range sc.lane {
				sc.lane[l] = sc.data[l][idx]
			}
			params.Finalize(dst, sc.skip.Get(idx), sc.lane)
		}
	}
	return nil
}

// endStep closes the step's update stream: every context's partly filled
// chunk joins the buffer list (an untouched one stays for the next step).
func endStep[M Wire](ctxs []DenseCtx[M]) {
	for k := range ctxs {
		if ctx := &ctxs[k]; len(ctx.buf) > 0 {
			ctx.sc.bins = append(ctx.sc.bins, ctx.buf)
			ctx.buf = nil
		}
	}
}

// scanDests runs the signal over one stream of a block, in parallel
// chunks when the machine has several workers; ctxs[k] serves the k-th
// chunk. The single-worker path makes no closure, hence no allocation.
func scanDests[M Wire](w *Worker, params *DenseParams[M], ctxs []DenseCtx[M], dests []partition.Dest, dep bool) {
	if w.serial(len(dests)) {
		scanRange(w, params, &ctxs[0], dests, dep)
		return
	}
	w.parallelRange(len(dests), func(k, start, end int) {
		scanRange(w, params, &ctxs[k], dests[start:end], dep)
	})
}

// scanRange walks a run of stream entries front to back. An entry carries
// the destination and its range in the graph's in-arrays, so a visit
// costs the filter probes, the signal call and, when dep is set (never on
// the low stream), the tracked-index read and the dependency skip test.
func scanRange[M Wire](w *Worker, params *DenseParams[M], ctx *DenseCtx[M], dests []partition.Dest, dep bool) {
	_, inSrc, inW := w.cluster.g.InCSC()
	active, except, skip := params.Active, params.Except, w.dense.skip
	trackIndex := w.cluster.class.TrackIndex
	ctx.tracked = dep
	for i := range dests {
		e := &dests[i]
		if (active != nil && !active.Get(int(e.Dst))) || (except != nil && except.Get(int(e.Dst))) {
			continue
		}
		if dep {
			ctx.trackIdx = trackIndex[e.Dst]
			if skip.GetAtomic(int(ctx.trackIdx)) {
				ctx.skipped++
				continue
			}
		}
		ctx.curDst, ctx.depBreak = e.Dst, false
		var ws []float32
		if inW != nil {
			ws = inW[e.Lo:e.Hi()]
		}
		params.Signal(ctx, e.Dst, inSrc[e.Lo:e.Hi()], ws)
		if dep && ctx.depBreak {
			skip.SetAtomic(int(ctx.trackIdx))
		}
	}
}

// groupCut returns where range g of B starts in the tracked index space
// [0, T): cuts are 64-aligned, so dependency segments exchange whole
// bitmap words, and clamp to T, which is also where range B "starts".
// Small T leaves trailing ranges empty; those exchange nothing.
func groupCut(T, B, g int) int {
	if g >= B {
		return T
	}
	return min((T*g/B+63)&^63, T)
}

// encodeDepFrame serializes the dependency state for tracked indices
// [gLo, gHi): the skip bitmap words covering [gLo, wHi) — gHi for a pass
// that breaks, gLo (no words) for one that does not — followed by each
// data lane's values: the paper's DepMessage in struct-of-arrays form
// (§6). The frame lives in a slab buffer whose ownership passes to the
// transport via SendBufs.
func encodeDepFrame(depSkip *bitset.Bitmap, depData [][]float64, gLo, wHi, gHi int) []byte {
	if gLo%64 != 0 {
		panic("core: dependency frame start not word-aligned")
	}
	n := bitset.SegmentWordBytes(gLo, wHi) + len(depData)*(gHi-gLo)*8
	out := depSkip.AppendSegmentLE(bufpool.Get(n)[:0], gLo, wHi)
	for _, lane := range depData {
		off := len(out)
		out = out[:off+(gHi-gLo)*8]
		f64Codec.putAll(out[off:], lane[gLo:gHi])
	}
	return out
}

// applyDepFrame merges a received dependency frame, laid out as
// encodeDepFrame writes it: skip bits are OR-ed (a break anywhere earlier
// in the ring holds), data lanes are overwritten (the predecessor's value
// is the accumulated state). The caller Releases the payload afterwards.
func applyDepFrame(payload []byte, depSkip *bitset.Bitmap, depData [][]float64, gLo, wHi, gHi int) error {
	wb := bitset.SegmentWordBytes(gLo, wHi)
	want := wb + len(depData)*(gHi-gLo)*8
	if len(payload) != want {
		return fmt.Errorf("core: dependency frame is %d bytes, want %d", len(payload), want)
	}
	if err := depSkip.OrSegmentLE(payload[:wb], gLo, wHi); err != nil {
		return fmt.Errorf("core: dependency frame: %w", err)
	}
	for l, lane := range depData {
		f64Codec.getAll(lane[gLo:gHi], payload[wb+l*(gHi-gLo)*8:])
	}
	return nil
}
