package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Block is the set of edges whose sources are one machine's masters and
// whose destinations are masters of one (possibly the same) partition —
// the subgraph "[i,j]" of the paper's Figure 7 — grouped by destination
// for pull-mode processing.
//
// A Block copies no arc. The graph's in-CSC is already destination-major
// with sources ascending, and a machine's masters are one contiguous ID
// range, so the block's share of a destination's in-row is one contiguous
// subrange of it: the block lists the destinations that have a non-empty
// subrange, each with the subrange's bounds in the graph's own in-side
// arrays (graph.InCSC) — it is valid for as long as its graph is
// reachable. It is the pull-side dual of graph.BlockedCSR and, like it, a
// pure function of (graph, partition starts).
//
// The destinations come as two packed streams, one per dependency class,
// each ascending by destination — and sources within a destination are
// ascending too, so a dependency-respecting scan visits neighbors in a
// deterministic global order fixed by the circulant ring. A dense step
// reads each stream front to back: Low holds the destinations that take
// no part in dependency propagation, so its scan never consults the
// degree class; Tracked holds the rest, whose tracked indices ascend with
// the destination, so a buffer group is a run of the stream. Each stream
// is exactly as long as its entries: a machine holds 16 bytes per
// destination its masters reach, one backing array for all its blocks.
type Block struct {
	Low     []Dest
	Tracked []Dest

	edges int64
}

// Dest is one destination of a block, packed into 16 bytes: in-arcs
// [Lo, Hi()) of the graph's in-CSC — N of them — are the arcs from the
// machine's masters to Dst. A tracked destination's index within its
// partition is DegreeClass.TrackIndex[Dst], read only when dependency
// propagates. N is at most Dst's in-degree, so layouts hold for
// vertices of fewer than 2³² in-arcs.
type Dest struct {
	Dst graph.VertexID
	N   uint32
	Lo  int64
}

// Hi is the end of the destination's in-arc run.
func (e *Dest) Hi() int64 { return e.Lo + int64(e.N) }

// NumEdges returns the edge count of the block.
func (b *Block) NumEdges() int64 { return b.edges }

// DegreeClass classifies vertices for differentiated dependency
// propagation (paper §5.2): vertices with in-degree ≥ Threshold are
// "tracked" (dependency bits circulate for them); the rest fall back to
// the plain schedule. Threshold ≤ 0 tracks every vertex, which disables
// the differentiation (but not dependency propagation itself).
//
// Tracked vertices of each partition get dense indices 0..len(Highs[d])-1
// in ascending vertex order; dependency frames cover exactly that index
// space, so their size is |tracked(d)| bits (plus any data lanes). The
// classification depends only on global in-degrees and the partition, so
// every machine computes identical tables.
type DegreeClass struct {
	Threshold int
	// TrackIndex maps a vertex to its dense index within its
	// partition's tracked set, or -1 if untracked.
	TrackIndex []int32
	// Highs lists each partition's tracked vertices in ascending order.
	Highs [][]graph.VertexID
}

// BuildDegreeClass computes the tracked-vertex tables for threshold.
func BuildDegreeClass(g *graph.Graph, pt *Partition, threshold int) *DegreeClass {
	dc := &DegreeClass{
		Threshold:  threshold,
		TrackIndex: make([]int32, g.NumVertices()),
		Highs:      make([][]graph.VertexID, pt.P),
	}
	for d := 0; d < pt.P; d++ {
		dc.classify(g, pt, d)
	}
	return dc
}

// classify (re)derives partition d's tracked set and indices.
func (dc *DegreeClass) classify(g *graph.Graph, pt *Partition, d int) {
	lo, hi := pt.Range(d)
	var highs []graph.VertexID
	for v := lo; v < hi; v++ {
		if dc.tracks(g, graph.VertexID(v)) {
			dc.TrackIndex[v] = int32(len(highs))
			highs = append(highs, graph.VertexID(v))
		} else {
			dc.TrackIndex[v] = -1
		}
	}
	dc.Highs[d] = highs
}

func (dc *DegreeClass) tracks(g *graph.Graph, v graph.VertexID) bool {
	return dc.Threshold <= 0 || g.InDegree(v) >= dc.Threshold
}

// Reclassify moves dc to g, a successor of its graph in which only the
// in-degrees of touched may differ, classifying afresh (and flagging)
// each partition whose tracked set changed. The result equals
// BuildDegreeClass(g, pt, Threshold).
func (dc *DegreeClass) Reclassify(g *graph.Graph, pt *Partition, touched []graph.VertexID) (changed []bool) {
	changed = make([]bool, pt.P)
	for _, v := range touched {
		if dc.tracks(g, v) != dc.Tracked(v) {
			changed[pt.Owner(v)] = true
			dc.classify(g, pt, pt.Owner(v))
		}
	}
	return changed
}

// Clone returns a copy that Reclassify moves without touching dc. The
// copy's Highs share dc's per-partition lists, which classify replaces
// and never writes.
func (dc *DegreeClass) Clone() *DegreeClass {
	return &DegreeClass{Threshold: dc.Threshold, TrackIndex: slices.Clone(dc.TrackIndex), Highs: slices.Clone(dc.Highs)}
}

// Tracked reports whether v participates in dependency propagation.
func (dc *DegreeClass) Tracked(v graph.VertexID) bool { return dc.TrackIndex[v] >= 0 }

// Layout is machine `Machine`'s share of the graph: one Block per
// destination partition (covering all out-edges of its masters), plus the
// shared partition and degree-class tables. Pull mode reads Blocks; push
// mode reads the global CSR rows of the machine's own vertex range, which
// are exactly its out-edges under outgoing edge-cut.
type Layout struct {
	Machine int
	Part    *Partition
	Class   *DegreeClass
	Blocks  []*Block // indexed by destination partition

	// Blocked is the partition-blocked view of the machine's out-CSR
	// (push mode's source-blocked, destination-partitioned scan order).
	// AttachBlocked builds it; every cluster attaches one per machine,
	// because the sparse scan has no other order (a nil Blocked is a
	// layout no engine runs on). Blocks are its pull-side counterpart
	// over the in-CSC.
	Blocked *graph.BlockedCSR

	entries []Dest // backs every block's streams: all low entries, then all tracked
}

// BuildLayout constructs machine m's layout: one forward sweep over the
// in-rows of each destination partition, locating the machine's source
// range in every row by binary search (the first position not below each
// end of the machine's ID range). The cost is O(|V|·log) index work
// per machine; nothing is sorted and nothing proportional to |E| is
// allocated or copied. The sweep lands in a scratch buffer that
// successive builds reuse, so the streams kept are allocated once, at
// their exact length.
func BuildLayout(g *graph.Graph, pt *Partition, dc *DegreeClass, m int) *Layout {
	blocks := make([]Block, pt.P)
	lay := &Layout{Machine: m, Part: pt, Class: dc, Blocks: make([]*Block, pt.P)}
	for d := range blocks {
		lay.Blocks[d] = &blocks[d]
	}
	// A destination is listed in at most one of the machine's blocks, so
	// |V| bounds every machine's sweep: one scratch serves them all.
	buf := getScratch(g.NumVertices())
	for d := range blocks {
		*buf = lay.sweep(g, d, *buf)
	}
	lay.settle(buf)
	return lay
}

// scratchPool holds sweeps' entries, every block of one machine in turn,
// until settle copies them out.
var scratchPool = sync.Pool{New: func() any { return new([]Dest) }}

// getScratch returns an empty scratch buffer that holds n entries.
func getScratch(n int) *[]Dest {
	buf := scratchPool.Get().(*[]Dest)
	*buf = slices.Grow((*buf)[:0], n)
	return buf
}

// sweep appends block d's entries, afresh, to buf: one forward pass over
// the in-rows of partition d.
func (lay *Layout) sweep(g *graph.Graph, d int, buf []Dest) []Dest {
	mlo, mhi := lay.Part.Range(lay.Machine)
	plo, phi := lay.Part.Range(d)
	inOff, inSrc := g.InTopology()
	for v := plo; v < phi; v++ {
		// locate, inlined by hand: this loop is every cluster build's.
		row := inSrc[inOff[v]:inOff[v+1]]
		lo, _ := slices.BinarySearch(row, graph.VertexID(mlo))
		n, _ := slices.BinarySearch(row[lo:], graph.VertexID(mhi))
		if n > 0 {
			buf = append(buf, Dest{Dst: graph.VertexID(v), N: uint32(n), Lo: inOff[v] + int64(lo)})
		}
	}
	return buf
}

// settle copies the scratch's entries — block after block, the entries
// of each class ascending within a block — into the layout's streams,
// each split off by class at its exact length, recounts every block's
// edges and gives the scratch back. The streams' backing array is reused
// when it holds them all (an Advance rewrites it in place) and allocated
// at their exact length otherwise.
func (lay *Layout) settle(sc *[]Dest) {
	buf, trackIndex := *sc, lay.Class.TrackIndex
	nLow := 0
	for i := range buf {
		if trackIndex[buf[i].Dst] < 0 {
			nLow++
		}
	}
	if cap(lay.entries) < len(buf) {
		lay.entries = make([]Dest, len(buf))
	}
	lay.entries = lay.entries[:len(buf)]
	low, tracked := lay.entries[:0:nLow], lay.entries[nLow:nLow]
	from := 0
	for d, b := range lay.Blocks {
		l0, t0 := len(low), len(tracked)
		var edges int64
		_, phi := lay.Part.Range(d)
		for ; from < len(buf) && int(buf[from].Dst) < phi; from++ {
			e := buf[from]
			if trackIndex[e.Dst] < 0 {
				low = append(low, e)
			} else {
				tracked = append(tracked, e)
			}
			edges += int64(e.N)
		}
		b.Low = low[l0:len(low):len(low)]
		b.Tracked = tracked[t0:len(tracked):len(tracked)]
		b.edges = edges
	}
	scratchPool.Put(sc)
}

// locate finds the run of the machine's masters in v's in-row; ok is
// false when it is empty.
func (lay *Layout) locate(g *graph.Graph, v graph.VertexID) (e Dest, ok bool) {
	mlo, mhi := lay.Part.Range(lay.Machine)
	inOff, inSrc := g.InTopology()
	row := inSrc[inOff[v]:inOff[v+1]]
	lo, _ := slices.BinarySearch(row, graph.VertexID(mlo))
	n, _ := slices.BinarySearch(row[lo:], graph.VertexID(mhi))
	return Dest{Dst: v, N: uint32(n), Lo: inOff[v] + int64(lo)}, n > 0
}

// Advance moves the layout from old to g, a successor in which only the
// rows of touched (ascending, no repeats) may differ, once its class was
// Reclassify'd (reclassed). Entries between two touched destinations
// shift by one common count; touched ones are located afresh; reclassed
// partitions' blocks are swept afresh. The result equals BuildLayout
// plus AttachBlocked over g.
func (lay *Layout) Advance(old, g *graph.Graph, touched []graph.VertexID, reclassed []bool) {
	oldOff, _ := old.InTopology()
	inOff, _ := g.InTopology()
	// move appends stream s, advanced, to out.
	move := func(out, s []Dest, ts []graph.VertexID, tracked bool) []Dest {
		for {
			j := len(s)
			if len(ts) > 0 {
				j = sort.Search(len(s), func(i int) bool { return s[i].Dst >= ts[0] })
			}
			if j > 0 {
				shift, at := inOff[s[0].Dst]-oldOff[s[0].Dst], len(out)
				out = append(out, s[:j]...)
				for k := at; shift != 0 && k < len(out); k++ {
					out[k].Lo += shift
				}
			}
			if len(ts) == 0 {
				return out
			}
			v := ts[0]
			ts, s = ts[1:], s[j:]
			if len(s) > 0 && s[0].Dst == v {
				s = s[1:]
			}
			if lay.Class.Tracked(v) != tracked {
				continue
			}
			if e, ok := lay.locate(g, v); ok {
				out = append(out, e)
			}
		}
	}
	buf := getScratch(g.NumVertices())
	for d, b := range lay.Blocks {
		if reclassed[d] {
			*buf = lay.sweep(g, d, *buf)
		} else {
			plo, phi := lay.Part.Range(d)
			ts := touched[sort.Search(len(touched), func(i int) bool { return int(touched[i]) >= plo }):]
			ts = ts[:sort.Search(len(ts), func(i int) bool { return int(ts[i]) >= phi })]
			*buf = move(*buf, b.Low, ts, false)
			*buf = move(*buf, b.Tracked, ts, true)
		}
	}
	lay.settle(buf)
	lay.Blocked.Advance(g, touched)
}

// Clone returns a copy of the layout over dc, a Clone of its class, that
// an Advance moves without touching lay: its streams and blocked CSR are
// copies.
func (lay *Layout) Clone(dc *DegreeClass) *Layout {
	c := &Layout{Machine: lay.Machine, Part: lay.Part, Class: dc, Blocks: make([]*Block, len(lay.Blocks)),
		Blocked: lay.Blocked.Clone(), entries: slices.Clone(lay.entries)}
	blocks := make([]Block, len(lay.Blocks))
	low, tracked := 0, 0 // stream cursors: all low entries come first
	for _, b := range lay.Blocks {
		tracked += len(b.Low)
	}
	for d, b := range lay.Blocks {
		nl, nt := low+len(b.Low), tracked+len(b.Tracked)
		blocks[d] = Block{Low: c.entries[low:nl:nl], Tracked: c.entries[tracked:nt:nt], edges: b.edges}
		c.Blocks[d] = &blocks[d]
		low, tracked = nl, nt
	}
	return c
}

// AttachBlocked builds the machine's partition-blocked CSR view over
// its master source range, with blockVerts source vertices per block
// (≤ 0 selects graph.DefaultBlockVerts). The derivation reads only the
// graph and the partition boundaries, so it is deterministic across
// machines and epochs: a rebuilt engine over the same snapshot always
// sees identical blocking, and fingerprints (computed over the graph)
// never observe it.
func (lay *Layout) AttachBlocked(g *graph.Graph, blockVerts int) error {
	if blockVerts <= 0 {
		blockVerts = graph.DefaultBlockVerts
	}
	lo, hi := lay.Part.Range(lay.Machine)
	bc, err := graph.BuildBlockedCSR(g, lo, hi, blockVerts, lay.Part.Starts)
	if err != nil {
		return fmt.Errorf("layout: machine %d blocked CSR: %w", lay.Machine, err)
	}
	lay.Blocked = bc
	return nil
}

// Validate checks layout invariants against the source graph, for tests:
// every block's two streams together list exactly the destinations of its
// partition that some local master points at — each in the stream of its
// dependency class, ascending — each with exactly
// the maximal run of local masters in its in-row — so the runs of one
// in-row across the p machines tile it — every listed arc exists on the
// out side with the same weight bit for bit, and every out-edge of the
// machine's masters is covered.
func (lay *Layout) Validate(g *graph.Graph) error {
	lo, hi := lay.Part.Range(lay.Machine)
	inOff, inSrc, inW := g.InCSC()
	var want int64
	for u := lo; u < hi; u++ {
		want += int64(g.OutDegree(graph.VertexID(u)))
	}
	var got int64
	for d, b := range lay.Blocks {
		got += b.NumEdges()
		var edges int64
		rest := [2][]Dest{b.Low, b.Tracked} // unmatched tail of each stream
		plo, phi := lay.Part.Range(d)
		for v := plo; v < phi; v++ {
			// The maximal run of local masters in v's in-row, by linear scan.
			rlo := inOff[v]
			for rlo < inOff[v+1] && int(inSrc[rlo]) < lo {
				rlo++
			}
			rhi := rlo
			for rhi < inOff[v+1] && int(inSrc[rhi]) < hi {
				rhi++
			}
			class := 0
			if lay.Class.Tracked(graph.VertexID(v)) {
				class = 1
			}
			listed := len(rest[class]) > 0 && rest[class][0].Dst == graph.VertexID(v)
			if rlo == rhi {
				if listed {
					return fmt.Errorf("layout: block %d dst %d has no sources", d, v)
				}
				continue
			}
			if !listed {
				return fmt.Errorf("layout: block %d misses dst %d (%d local sources) in its class-%d stream", d, v, rhi-rlo, class)
			}
			e := rest[class][0]
			rest[class] = rest[class][1:]
			if e.Lo != rlo || e.Hi() != rhi {
				return fmt.Errorf("layout: block %d dst %d covers in-arcs [%d,%d), local masters are [%d,%d)",
					d, v, e.Lo, e.Hi(), rlo, rhi)
			}
			for at := rlo; at < rhi; at++ {
				w, ok := g.EdgeWeight(inSrc[at], graph.VertexID(v))
				if !ok {
					return fmt.Errorf("layout: phantom edge (%d,%d)", inSrc[at], v)
				}
				// Parallel arcs may carry different weights, and EdgeWeight
				// reports only one of them.
				if inW != nil && g.Simple() && math.Float32bits(inW[at]) != math.Float32bits(w) {
					return fmt.Errorf("layout: edge (%d,%d) weight %v, graph has %v", inSrc[at], v, inW[at], w)
				}
			}
			edges += rhi - rlo
		}
		for class, r := range rest {
			if len(r) != 0 {
				return fmt.Errorf("layout: block %d class-%d stream lists dst %d outside partition [%d,%d), out of order or in the wrong class",
					d, class, r[0].Dst, plo, phi)
			}
		}
		if edges != b.NumEdges() {
			return fmt.Errorf("layout: block %d counts %d edges, its ranges hold %d", d, b.NumEdges(), edges)
		}
	}
	if got != want {
		return fmt.Errorf("layout: machine %d has %d edges across blocks, owns %d", lay.Machine, got, want)
	}
	if lay.Blocked != nil {
		blo, bhi := lay.Blocked.SrcRange()
		if blo != lo || bhi != hi {
			return fmt.Errorf("layout: blocked CSR covers [%d,%d), machine owns [%d,%d)", blo, bhi, lo, hi)
		}
		if lay.Blocked.NumParts() != lay.Part.P {
			return fmt.Errorf("layout: blocked CSR has %d partitions, partition has %d", lay.Blocked.NumParts(), lay.Part.P)
		}
		if err := lay.Blocked.Validate(); err != nil {
			return fmt.Errorf("layout: machine %d: %w", lay.Machine, err)
		}
	}
	return nil
}
