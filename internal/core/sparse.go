package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// SparseParams configure one sparse (push-mode) edge-processing pass:
// each machine scans the out-edges of its frontier masters (all local
// under outgoing edge-cut) and routes messages to the destinations'
// masters. Sparse mode has no cross-machine loop-carried dependency — the
// paper's optimization targets pull mode (§2.2: "SympleGraph optimization
// focuses on pull mode") — but it is required by direction-optimizing BFS
// and general Gemini programs.
type SparseParams[M Wire] struct {
	// Frontier lists the local master vertices to process. It must be
	// strictly ascending — bitmap order, which is how every in-tree
	// frontier is built; anything else fails the pass.
	Frontier []graph.VertexID
	// Signal is the sparse-signal UDF: it scans src's outgoing
	// neighbors, calling ctx.Edge per neighbor examined and ctx.EmitTo
	// to send a message to a destination's master.
	//
	// The scan may invoke Signal several times for one src —
	// once per destination partition, with the adjacency subrange
	// (still in adjacency order) owned by that partition. Sparse UDFs
	// must therefore be per-edge decomposable: decide per destination
	// in the supplied slice, and EmitTo only those destinations. There
	// is no sparse analogue of the dense loop-carried break, so this
	// costs no expressiveness.
	//
	// Contract: emit only candidates that can still win. Every EmitTo
	// is encoded, shipped, decoded and fed to Slot, so a record Slot is
	// bound to reject is pure cost; a min-combining program (CC, SSSP)
	// tests each candidate with a MinFilter first, which makes that one
	// load and compare per edge, and a program with replicated state
	// tests that (BFS's visited bitmap).
	Signal func(ctx *SparseCtx[M], src graph.VertexID, dsts []graph.VertexID, weights []float32)
	// Slot aggregates one message at the destination's master.
	Slot func(dst graph.VertexID, msg M)
	// Least, when set, joins the pass's agreement on a minimum, which
	// rides the frame headers and so costs no hop: on entry it holds
	// this machine's contribution beside what the scan reports through
	// SparseCtx.Least, on return the minimum over every machine's (+Inf
	// when there is none). SSSP's bucket bound advances on it.
	Least *float64
}

// SparseCtx is the per-worker sparse signal context.
type SparseCtx[M Wire] struct {
	w     *Worker
	codec *codec[M]
	rec   int // record width, as DenseCtx's
	edges int64
	least float64 // this scan range's contribution to SparseParams.Least

	// Update assembly is slab-backed and chunked (see emitChunkBytes):
	// bufs holds the open chunk per destination partition, and full
	// chunks retire into this context's own per-peer lists, merged in
	// scan-range order once every range is done.
	bufs   [][]byte
	chunks [][][]byte

	// The scan fixes the destination partition before invoking Signal,
	// so EmitTo appends to the current bin directly — no per-emit owner
	// lookup. curLo/curHi bound the current partition's vertex range;
	// emitting outside it is a UDF contract violation.
	cur          []byte
	curQ         int
	curLo, curHi graph.VertexID
}

// Edge records one neighbor traversal.
func (ctx *SparseCtx[M]) Edge() { ctx.edges++ }

// Least lowers this machine's contribution to the pass's agreed minimum
// (SparseParams.Least) to x; a NaN is ignored.
func (ctx *SparseCtx[M]) Least(x float64) {
	if x < ctx.least {
		ctx.least = x
	}
}

// EmitTo sends msg to dst's master slot.
func (ctx *SparseCtx[M]) EmitTo(dst graph.VertexID, msg M) {
	// The scan pinned the destination partition: append to its bin,
	// asserting the UDF kept to the supplied adjacency slice.
	if dst < ctx.curLo || dst >= ctx.curHi {
		panic(fmt.Sprintf("core: sparse signal emitted to vertex %d outside partition %d [%d,%d)",
			dst, ctx.curQ, ctx.curLo, ctx.curHi))
	}
	buf := ctx.cur
	if cap(buf)-len(buf) < ctx.rec {
		if len(buf) > 0 {
			ctx.chunks[ctx.curQ] = append(ctx.chunks[ctx.curQ], buf)
		} else if buf != nil {
			bufpool.Put(buf)
		}
		buf = bufpool.Get(emitChunkBytes)[:0]
	}
	off := len(buf)
	buf = buf[:off+ctx.rec] // written in place, as DenseCtx.Emit
	binary.LittleEndian.PutUint32(buf[off:], uint32(dst))
	ctx.codec.put(buf[off+4:], msg)
	ctx.cur = buf
}

// MinFilter is the sender-side half of a min-combining sparse push (CC
// labels, SSSP distances): it says whether a candidate can still win at
// its destination's master, so that Signal emits improvements, not
// edges. For a destination this machine owns the test is against the
// authoritative master value, which no scan writes; for a remote one,
// against the smallest candidate this machine has already emitted to it.
//
// Dropping a candidate that fails the test is sound because values only
// decrease and a peer's frames are applied in emission order: by the
// dropped record's turn the master would hold a value at least as small,
// and a strict-less Slot would reject it. Results and next sets are those
// of the unfiltered push; update bytes fall, and so may the count a pass
// returns — a last pass whose candidates all lose can emit nothing. With Workers > 1 concurrent scans race to lower an entry,
// so which records survive — never what the master ends up with — can
// differ between runs.
//
// A filter lives for one program run on one machine and is not part of a
// checkpoint: a restored run starts with an empty filter and merely
// re-sends candidates its lost incarnation had already sent.
type MinFilter struct {
	lo, hi graph.VertexID
	sent   []uint32 // per remote vertex: bit pattern of the best candidate emitted (atomic)
}

// NewMinFilter returns w's empty filter. top is the bit pattern of the
// value domain's maximum (^uint32(0), +Inf), which no strict-less Slot
// accepts.
func NewMinFilter(w *Worker, top uint32) *MinFilter {
	lo, hi := w.MasterRange()
	f := &MinFilter{lo: graph.VertexID(lo), hi: graph.VertexID(hi),
		sent: make([]uint32, w.cluster.g.NumVertices())}
	for i := range f.sent {
		f.sent[i] = top // plain: no scan has the filter yet
	}
	return f
}

// ImprovesU32 reports whether cand can still win at v — against
// master[v] when this machine owns v, else against the best candidate
// emitted to v so far, which cand then replaces. The comparison is made
// in the value domain; only the swap is on the bit pattern.
func (f *MinFilter) ImprovesU32(v graph.VertexID, cand uint32, master []uint32) bool {
	if v >= f.lo && v < f.hi {
		return cand < master[v]
	}
	p := &f.sent[v]
	for {
		old := atomic.LoadUint32(p)
		if !(cand < old) {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, cand) {
			return true
		}
	}
}

// ImprovesF32 is ImprovesU32 for float32 values.
func (f *MinFilter) ImprovesF32(v graph.VertexID, cand float32, master []float32) bool {
	if v >= f.lo && v < f.hi {
		return cand < master[v]
	}
	p := &f.sent[v]
	for {
		old := atomic.LoadUint32(p)
		if !(cand < math.Float32frombits(old)) {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, math.Float32bits(cand)) {
			return true
		}
	}
}

// beginPart switches the context's current bin to destination partition
// q, saving the open bin of the previous partition for later.
func (ctx *SparseCtx[M]) beginPart(q int) {
	ctx.bufs[ctx.curQ] = ctx.cur
	ctx.cur = ctx.bufs[q]
	ctx.curQ = q
	lo, hi := ctx.w.cluster.part.Range(q)
	ctx.curLo, ctx.curHi = graph.VertexID(lo), graph.VertexID(hi)
}

// ProcessEdgesSparse runs one sparse pass and returns the number of
// records emitted in it by all machines together. Every frontier vertex
// must be a local master.
//
// The frontier is split into source blocks of the partition-blocked CSR;
// for each (block, destination partition) range the scan fixes the bin
// once and signals every frontier source's partition-restricted adjacency
// row into it — a slice append per emit, the scan's writes confined to
// one cache-resident bin at a time. Per destination peer the records
// leave in (source, adjacency) order — sources ascend across blocks, and
// parallel scan ranges merge their bins in range order — and
// sparseExchange applies them in ring order, so results, including
// first-wins slots, are deterministic at any Workers and equal to a
// pull's. Scan work stays frontier-proportional: rows are offset lookups,
// never block-wide edge sweeps. The count, like the least of
// SparseParams.Least, costs no collective: every frame starts with its
// sender's total and least (updHeader), and every machine gets one from
// every peer.
func ProcessEdgesSparse[M Wire](w *Worker, params SparseParams[M]) (int64, error) {
	f := params.Frontier
	for i := 1; i < len(f); i++ {
		if f[i-1] >= f[i] {
			return 0, fmt.Errorf("core: sparse frontier not strictly ascending at index %d (%d ≥ %d)", i-1, f[i-1], f[i])
		}
	}
	p := w.N()
	base := w.nextTags(1)
	bc := w.layout.Blocked
	w.observeStep()
	pass := w.sparsePass
	w.sparsePass++
	pushStart := w.spanStart()

	// Group the ascending frontier into per-source-block subslices.
	srcLo, _ := bc.SrcRange()
	bv := bc.BlockVerts()
	var groups [][]graph.VertexID
	for i := 0; i < len(f); {
		if !w.Owns(f[i]) {
			panic(fmt.Sprintf("core: node %d asked to push from vertex %d it does not own", w.id, f[i]))
		}
		b := (int(f[i]) - srcLo) / bv
		j := i + 1
		for j < len(f) && (int(f[j])-srcLo)/bv == b {
			j++
		}
		groups = append(groups, f[i:j])
		i = j
	}

	c := codecOf[M]()
	ctxs := make([]*SparseCtx[M], w.cluster.opts.Workers) // one per scan range
	w.parallelRange(len(groups), func(k, start, end int) {
		ctx := &SparseCtx[M]{
			w:      w,
			codec:  c,
			rec:    4 + c.size,
			least:  math.Inf(1),
			bufs:   make([][]byte, p),
			chunks: make([][][]byte, p),
		}
		ctx.beginPart(0)
		for _, srcs := range groups[start:end] {
			for q := 0; q < p; q++ {
				ctx.beginPart(q)
				for _, src := range srcs {
					dsts, ws := bc.Row(src, q)
					if len(dsts) == 0 {
						continue
					}
					params.Signal(ctx, src, dsts, ws)
				}
			}
		}
		ctx.bufs[ctx.curQ] = ctx.cur
		for peer, b := range ctx.bufs {
			if len(b) > 0 {
				ctx.chunks[peer] = append(ctx.chunks[peer], b)
			} else if b != nil {
				bufpool.Put(b)
			}
		}
		w.AddEdges(ctx.edges)
		ctxs[k] = ctx
	})
	// Ranges cover ascending sources, so merging their bins in range
	// order, not completion order, keeps each peer's records in source
	// order. Each range kept its own minimum; they merge here too.
	least := math.Inf(1)
	if params.Least != nil && *params.Least < least {
		least = *params.Least
	}
	chunks := make([][][]byte, p) // per-peer bin lists (whole records per bin)
	for peer := range chunks {
		chunks[peer] = [][]byte{nil} // [0]: the frame's header, set at the send
		for _, ctx := range ctxs {
			if ctx != nil {
				chunks[peer] = append(chunks[peer], ctx.chunks[peer]...)
			}
		}
	}
	for _, ctx := range ctxs {
		if ctx != nil && ctx.least < least {
			least = ctx.least
		}
	}
	total, least, err := sparseExchange(w, c, params.Slot, base, pass, chunks, least, pushStart)
	if params.Least != nil {
		*params.Least = least
	}
	return total, err
}

// updHeader is the size of the header that starts every sparse update
// frame: the sender's records emitted in the pass, to all destinations,
// as a little-endian uint64, then its contribution to the pass's agreed
// minimum (SparseParams.Least) as a little-endian float64, +Inf when it
// has none.
const updHeader = 16

// sparseExchange ships the pass's per-peer buffers, each frame behind the
// machine's header (emitted count and least), then applies every
// machine's share in the dense pass's ring order — peers id−1, id−2, …,
// its own block last — adding up the counts and taking the minimum of
// the leasts. Together with each sender's records leaving in source
// order, this makes a first-wins slot keep the candidate a pull would
// find first (seq.RingOrder), so both directions give one answer. Remote
// frames arrive as one vectored frame per (peer, pass).
func sparseExchange[M Wire](w *Worker, c *codec[M], slot func(graph.VertexID, M), base int32, pass int,
	chunks [][][]byte, least float64, pushStart time.Time) (int64, float64, error) {
	p := w.N()
	rec := 4 + c.size
	var sent int64
	for _, bins := range chunks {
		for _, b := range bins {
			sent += int64(len(b) / rec) // the unset count slot is nil
		}
	}
	for peer, bins := range chunks {
		if peer == w.id {
			continue
		}
		// Vectored hand-off: no concatenation, chunks return to the slab
		// after the write.
		hdr := binary.LittleEndian.AppendUint64(bufpool.Get(updHeader)[:0], uint64(sent))
		bins[0] = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(least))
		if err := w.ep.SendBufs(comm.NodeID(peer), comm.KindUpdate, base, comm.Buffers(bins)); err != nil {
			return 0, 0, err
		}
	}
	w.endSpan(obs.PhaseSparsePush, pass, -1, -1, pushStart)
	total := sent
	for j := 1; j <= p; j++ {
		peer := (w.id - j + p) % p
		if peer == w.id {
			if err := applyOwn(w, c, slot, chunks[w.id][1:]); err != nil {
				return 0, 0, updateError(w, w.id, base, err)
			}
			continue
		}
		m, err := w.recvTimed(&w.updWait, comm.NodeID(peer), comm.KindUpdate, base,
			obs.PhaseUpdateWait, pass, -1, -1)
		if err != nil {
			return 0, 0, err
		}
		var n int64
		var l float64
		if len(m.Payload) < updHeader {
			err = fmt.Errorf("update frame is %d bytes, shorter than its %d-byte header", len(m.Payload), updHeader)
		} else if n = int64(binary.LittleEndian.Uint64(m.Payload)); n < int64((len(m.Payload)-updHeader)/rec) {
			err = fmt.Errorf("update frame holds more records than its count of %d", n)
		} else if l = math.Float64frombits(binary.LittleEndian.Uint64(m.Payload[8:])); math.IsNaN(l) {
			err = fmt.Errorf("update frame's least is NaN") // would stall a loop that advances on it
		} else {
			err = applyUpdates(w, c, slot, m.Payload[updHeader:])
		}
		m.Release()
		if err != nil {
			return 0, 0, updateError(w, peer, base, err)
		}
		total += n
		if l < least {
			least = l
		}
	}
	return total, least, nil
}

// applyUpdates feeds payload's (dst, msg) records to slot, which runs at
// dst's master: a record for a vertex this machine does not own, or a
// torn trailing record, is an error.
func applyUpdates[M Wire](w *Worker, c *codec[M], slot func(graph.VertexID, M), payload []byte) error {
	rec := 4 + c.size
	if len(payload)%rec != 0 {
		return fmt.Errorf("%d record bytes are not a whole number of %d-byte records", len(payload), rec)
	}
	lo, hi := w.MasterRange()
	for off := 0; off < len(payload); off += rec {
		dst := graph.VertexID(binary.LittleEndian.Uint32(payload[off:]))
		if int(dst) < lo || int(dst) >= hi {
			return fmt.Errorf("record for vertex %d, which node %d does not own", dst, w.id)
		}
		slot(dst, c.get(payload[off+4:]))
	}
	return nil
}

// applyOwn applies the machine's own update chunks, which never leave
// it, and returns them to the slab.
func applyOwn[M Wire](w *Worker, c *codec[M], slot func(graph.VertexID, M), bins [][]byte) (err error) {
	for _, b := range bins {
		if err == nil {
			err = applyUpdates(w, c, slot, b)
		}
		bufpool.Put(b)
	}
	return err
}

// updateError names the update stream a frame that failed to apply came
// from: a protocol violation, never retried.
func updateError(w *Worker, from int, tag int32, err error) error {
	return &comm.ProtocolError{Node: comm.NodeID(w.id), From: comm.NodeID(from), Kind: comm.KindUpdate,
		WantTag: tag, GotTag: tag, Reason: err.Error()}
}
