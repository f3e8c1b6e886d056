package partition

import (
	"fmt"
	"math"
	"slices"

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
// subrange of it: the block keeps the destinations that have a non-empty
// subrange and, per destination, the subrange's bounds in the graph's own
// in-side arrays. It is the pull-side dual of graph.BlockedCSR and, like
// it, a pure function of (graph, partition starts). Dsts is ascending and
// Sources within a destination are ascending too, so a
// dependency-respecting scan visits neighbors in a deterministic global
// order fixed by the circulant ring.
type Block struct {
	Dsts []graph.VertexID // destinations with ≥1 edge in this block, ascending

	// TrackedPos/LowPos split positions into Dsts by dependency class:
	// TrackedPos lists positions whose destination participates in
	// dependency propagation (ascending tracked index), LowPos the rest.
	TrackedPos []int32
	LowPos     []int32

	// span[2i]:span[2i+1] is destination Dsts[i]'s range in srcs and
	// weights, which are the graph's in-side arrays (graph.InCSC), not
	// copies: a Block is valid for as long as its graph is reachable.
	span    []int64
	srcs    []graph.VertexID
	weights []float32 // nil when unweighted
	edges   int64
}

// NumEdges returns the edge count of the block.
func (b *Block) NumEdges() int64 { return b.edges }

// Sources returns the source list of the i-th destination in Dsts. The
// slice aliases the graph's storage and must not be modified.
func (b *Block) Sources(i int) []graph.VertexID {
	return b.srcs[b.span[2*i]:b.span[2*i+1]]
}

// SourceWeights returns the weights parallel to Sources(i), or nil.
func (b *Block) SourceWeights(i int) []float32 {
	if b.weights == nil {
		return nil
	}
	return b.weights[b.span[2*i]:b.span[2*i+1]]
}

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
		lo, hi := pt.Range(d)
		var highs []graph.VertexID
		for v := lo; v < hi; v++ {
			if threshold <= 0 || g.InDegree(graph.VertexID(v)) >= threshold {
				dc.TrackIndex[v] = int32(len(highs))
				highs = append(highs, graph.VertexID(v))
			} else {
				dc.TrackIndex[v] = -1
			}
		}
		dc.Highs[d] = highs
	}
	return dc
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
	// Built on demand by AttachBlocked when the binned scan is enabled;
	// nil layouts fall back to the flat push scan. Blocks are its
	// pull-side counterpart over the in-CSC.
	Blocked *graph.BlockedCSR
}

// BuildLayout constructs machine m's layout: one forward sweep over the
// in-rows of each destination partition, locating the machine's source
// range in every row by binary search (the first position not below each
// end of the machine's ID range). The cost is O(|V|·log) index work
// per machine; nothing is sorted and nothing proportional to |E| is
// allocated or copied.
func BuildLayout(g *graph.Graph, pt *Partition, dc *DegreeClass, m int) *Layout {
	mlo, mhi := pt.Range(m)
	inOff, inSrc, inW := g.InCSC()
	blocks := make([]Block, pt.P)
	lay := &Layout{Machine: m, Part: pt, Class: dc, Blocks: make([]*Block, pt.P)}
	for d := range blocks {
		blocks[d].srcs, blocks[d].weights = inSrc, inW
		lay.Blocks[d] = &blocks[d]
	}

	// A destination is listed in at most one of the machine's blocks, and
	// only if one of the machine's out-arcs reaches it, so min(|V|, |E_m|)
	// bounds the p blocks together and one backing array per field serves
	// them all.
	arcs := 0
	for u := mlo; u < mhi; u++ {
		arcs += g.OutDegree(graph.VertexID(u))
	}
	bound := min(arcs, g.NumVertices())
	dsts := make([]graph.VertexID, 0, bound)
	span := make([]int64, 0, 2*bound)
	tracked := make([]int32, 0, bound)
	low := make([]int32, 0, bound)
	for d := range blocks {
		b := &blocks[d]
		d0, t0, l0 := len(dsts), len(tracked), len(low)
		plo, phi := pt.Range(d)
		for v := plo; v < phi; v++ {
			row := inSrc[inOff[v]:inOff[v+1]]
			lo, _ := slices.BinarySearch(row, graph.VertexID(mlo))
			n, _ := slices.BinarySearch(row[lo:], graph.VertexID(mhi))
			if n == 0 {
				continue
			}
			if pos := int32(len(dsts) - d0); dc.TrackIndex[v] >= 0 {
				tracked = append(tracked, pos)
			} else {
				low = append(low, pos)
			}
			at := inOff[v] + int64(lo)
			dsts = append(dsts, graph.VertexID(v))
			span = append(span, at, at+int64(n))
			b.edges += int64(n)
		}
		b.Dsts = dsts[d0:len(dsts):len(dsts)]
		b.span = span[2*d0 : len(span) : len(span)]
		b.TrackedPos = tracked[t0:len(tracked):len(tracked)]
		b.LowPos = low[l0:len(low):len(low)]
	}
	return lay
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
// every block lists exactly the destinations of its partition that some
// local master points at, each with exactly the maximal run of local
// masters in its in-row — so the runs of one in-row across the p machines
// tile it — every listed arc exists on the out side with the same weight
// bit for bit, every out-edge of the machine's masters is covered, and
// the dependency-class split is ordered.
func (lay *Layout) Validate(g *graph.Graph) error {
	lo, hi := lay.Part.Range(lay.Machine)
	inOff, inSrc, _ := g.InCSC()
	var want int64
	for u := lo; u < hi; u++ {
		want += int64(g.OutDegree(graph.VertexID(u)))
	}
	var got int64
	for d, b := range lay.Blocks {
		got += b.NumEdges()
		if len(b.span) != 2*len(b.Dsts) {
			return fmt.Errorf("layout: block %d has %d range bounds for %d dsts", d, len(b.span), len(b.Dsts))
		}
		if len(b.TrackedPos)+len(b.LowPos) != len(b.Dsts) {
			return fmt.Errorf("layout: block %d tracked+low != dsts", d)
		}
		var edges int64
		i := 0 // next unmatched position in b.Dsts
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
			listed := i < len(b.Dsts) && b.Dsts[i] == graph.VertexID(v)
			if rlo == rhi {
				if listed {
					return fmt.Errorf("layout: block %d dst %d has no sources", d, v)
				}
				continue
			}
			if !listed {
				return fmt.Errorf("layout: block %d misses dst %d (%d local sources)", d, v, rhi-rlo)
			}
			if b.span[2*i] != rlo || b.span[2*i+1] != rhi {
				return fmt.Errorf("layout: block %d dst %d covers in-arcs [%d,%d), local masters are [%d,%d)",
					d, v, b.span[2*i], b.span[2*i+1], rlo, rhi)
			}
			ws := b.SourceWeights(i)
			for j, src := range b.Sources(i) {
				w, ok := g.EdgeWeight(src, graph.VertexID(v))
				if !ok {
					return fmt.Errorf("layout: phantom edge (%d,%d)", src, v)
				}
				// Parallel arcs may carry different weights, and EdgeWeight
				// reports only one of them.
				if ws != nil && g.Simple() && math.Float32bits(ws[j]) != math.Float32bits(w) {
					return fmt.Errorf("layout: edge (%d,%d) weight %v, graph has %v", src, v, ws[j], w)
				}
			}
			edges += rhi - rlo
			i++
		}
		if i != len(b.Dsts) {
			return fmt.Errorf("layout: block %d lists dst %d outside partition [%d,%d) or out of order", d, b.Dsts[i], plo, phi)
		}
		if edges != b.NumEdges() {
			return fmt.Errorf("layout: block %d counts %d edges, its ranges hold %d", d, b.NumEdges(), edges)
		}
		last := int32(-1)
		for _, pos := range b.TrackedPos {
			idx := lay.Class.TrackIndex[b.Dsts[pos]]
			if idx < 0 {
				return fmt.Errorf("layout: low vertex in TrackedPos")
			}
			if idx <= last {
				return fmt.Errorf("layout: TrackedPos not ascending by tracked index")
			}
			last = idx
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
