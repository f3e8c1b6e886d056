package graph

import (
	"fmt"
	"math"
	"slices"
)

// BlockedCSR is the partition-blocked view of a source range of the
// out-CSR, the representation behind the binned edge scan (GPOP's
// partition-centric processing mapped onto SympleGraph's layout).
//
// Sources in [SrcLo, SrcHi) are grouped into blocks of BlockVerts
// consecutive vertices, and each source's adjacency is split by the
// destination partition it lands in. Because a vertex's out-neighbors
// are sorted by ID and partitions are contiguous ascending vertex
// ranges, every (source, partition) range is a contiguous subrange of
// the flat adjacency — so the blocked CSR stores one 4-byte cut per
// (source, partition), counted from the start of the source's own row,
// and never copies an edge; a row the graph moves without editing keeps
// its cuts. That makes the
// derivation trivially deterministic: two builds over the same graph
// and partition boundaries produce identical offsets, so content
// fingerprints and mutation deltas (computed over the graph itself)
// are untouched by blocking.
//
// Iterating a fixed (block, partition) pair visits sources in
// ascending ID order and, within a source, edges in adjacency order —
// exactly the flat scan's order restricted to that partition. The
// sparse scan relies on this for deterministic per-peer byte streams.
type BlockedCSR struct {
	g *Graph

	srcLo, srcHi int
	blockVerts   int
	partStarts   []int // len p+1, ascending, partStarts[p] == |V|

	// cut has one entry per (source, partition) pair: cut[(v-srcLo)*p+q]
	// is where, counted from the start of v's out-row, v's edges
	// destined to partitions ≤ q end. Partition q's edges are the row's
	// cut[i-1]:cut[i] (0:cut[i] for q == 0), and a source's last cut is
	// its out-degree.
	cut []uint32

	// blockOff are prefix sums of edge counts per (block, partition):
	// blockOff[b*p+q+1]-blockOff[b*p+q] edges go from block b to
	// partition q. Used for bin sizing and coverage checks.
	blockOff []int64
}

// DefaultBlockVerts is the source-block granularity used by the binned
// scans: 4096 sources keep a block's vertex state (a few bytes per
// source) and one destination bin resident in L2 together.
const DefaultBlockVerts = 4096

// BuildBlockedCSR derives the blocked view of g's out-edges for sources
// in [srcLo, srcHi), with destination partitions given by partStarts
// (len p+1, ascending, partStarts[0]==0, partStarts[p]==|V|).
// blockVerts is the source-block granularity; the final block may be
// short.
func BuildBlockedCSR(g *Graph, srcLo, srcHi, blockVerts int, partStarts []int) (*BlockedCSR, error) {
	if srcLo < 0 || srcHi > g.n || srcLo > srcHi {
		return nil, fmt.Errorf("graph: blocked CSR source range [%d,%d) outside [0,%d)", srcLo, srcHi, g.n)
	}
	if blockVerts <= 0 {
		return nil, fmt.Errorf("graph: blocked CSR block size %d, want > 0", blockVerts)
	}
	p := len(partStarts) - 1
	if p < 1 {
		return nil, fmt.Errorf("graph: blocked CSR needs at least one partition")
	}
	if partStarts[0] != 0 || partStarts[p] != g.n {
		return nil, fmt.Errorf("graph: partition starts span [%d,%d], want [0,%d]", partStarts[0], partStarts[p], g.n)
	}
	for q := 0; q < p; q++ {
		if partStarts[q] > partStarts[q+1] {
			return nil, fmt.Errorf("graph: partition starts not monotone at %d", q)
		}
	}

	bc := &BlockedCSR{
		g:          g,
		srcLo:      srcLo,
		srcHi:      srcHi,
		blockVerts: blockVerts,
		partStarts: partStarts,
	}
	bc.cut = make([]uint32, (srcHi-srcLo)*p)
	bc.blockOff = make([]int64, bc.NumBlocks()*p+1)

	for v := srcLo; v < srcHi; v++ {
		nbrs := g.outTargets[g.outOffsets[v]:g.outOffsets[v+1]]
		if uint64(len(nbrs)) > math.MaxUint32 {
			return nil, fmt.Errorf("graph: vertex %d has %d out-edges, a blocked CSR cuts rows of at most %d", v, len(nbrs), uint32(math.MaxUint32))
		}
		b := (v - srcLo) / blockVerts
		i := 0 // adjacency cursor: nbrs[:i] assigned to partitions < q
		for q := 0; q < p; q++ {
			bound := VertexID(partStarts[q+1])
			start := i
			for i < len(nbrs) && nbrs[i] < bound {
				i++
			}
			bc.cut[(v-srcLo)*p+q] = uint32(i)
			bc.blockOff[b*p+q+1] += int64(i - start)
		}
		if i != len(nbrs) {
			// Unreachable on a validated graph (targets < |V| ==
			// partStarts[p]); defend against corrupt inputs anyway.
			return nil, fmt.Errorf("graph: vertex %d has %d edges beyond the last partition", v, len(nbrs)-i)
		}
	}
	for i := 1; i < len(bc.blockOff); i++ {
		bc.blockOff[i] += bc.blockOff[i-1]
	}
	return bc, nil
}

// Advance re-points the view at g, a successor of its graph in which
// only the out-rows of touched may differ: those are split afresh, and
// every other row keeps its cuts, which are row-relative, however far
// the row moved. The result equals BuildBlockedCSR over g.
func (bc *BlockedCSR) Advance(g *Graph, touched []VertexID) {
	p := bc.NumParts()
	diff := make([]int64, len(bc.blockOff)) // count changes per (block, partition)
	for _, v := range touched {
		if int(v) < bc.srcLo || int(v) >= bc.srcHi {
			continue
		}
		b := (int(v) - bc.srcLo) / bc.blockVerts
		row := bc.cut[(int(v)-bc.srcLo)*p : (int(v)-bc.srcLo+1)*p]
		nbrs := g.outTargets[g.outOffsets[v]:g.outOffsets[v+1]]
		var was, at uint32 // old and new end of the previous partition
		for q := range row {
			j, _ := slices.BinarySearch(nbrs, VertexID(bc.partStarts[q+1]))
			diff[b*p+q] += int64(uint32(j)-at) - int64(row[q]-was)
			was, at, row[q] = row[q], uint32(j), uint32(j)
		}
	}
	var acc int64
	for k := 0; k+1 < len(bc.blockOff); k++ {
		acc += diff[k]
		bc.blockOff[k+1] += acc
	}
	bc.g = g
}

// Clone returns a copy of the view that an Advance moves without
// touching bc.
func (bc *BlockedCSR) Clone() *BlockedCSR {
	c := *bc
	c.cut, c.blockOff = slices.Clone(bc.cut), slices.Clone(bc.blockOff)
	return &c
}

// SrcRange returns the source vertex range [lo, hi) the view covers.
func (bc *BlockedCSR) SrcRange() (lo, hi int) { return bc.srcLo, bc.srcHi }

// NumParts returns the number of destination partitions.
func (bc *BlockedCSR) NumParts() int { return len(bc.partStarts) - 1 }

// BlockVerts returns the source-block granularity.
func (bc *BlockedCSR) BlockVerts() int { return bc.blockVerts }

// NumBlocks returns the number of source blocks (the last may be short).
func (bc *BlockedCSR) NumBlocks() int {
	n := bc.srcHi - bc.srcLo
	return (n + bc.blockVerts - 1) / bc.blockVerts
}

// Block returns the source range [lo, hi) of block b.
func (bc *BlockedCSR) Block(b int) (lo, hi int) {
	lo = bc.srcLo + b*bc.blockVerts
	hi = lo + bc.blockVerts
	if hi > bc.srcHi {
		hi = bc.srcHi
	}
	return lo, hi
}

// Row returns src's out-edges destined to partition q: targets and (for
// weighted graphs) the parallel weights, in adjacency order. The slices
// alias the graph's storage and must not be modified.
func (bc *BlockedCSR) Row(src VertexID, q int) ([]VertexID, []float32) {
	i := (int(src)-bc.srcLo)*bc.NumParts() + q
	base := bc.g.outOffsets[src]
	lo, hi := base, base+int64(bc.cut[i])
	if q > 0 {
		lo += int64(bc.cut[i-1])
	}
	if bc.g.outWeights == nil {
		return bc.g.outTargets[lo:hi], nil
	}
	return bc.g.outTargets[lo:hi], bc.g.outWeights[lo:hi]
}

// RangeEdges returns the number of edges in the (block b, partition q)
// range — the exact bin capacity a binned scan of that range needs.
func (bc *BlockedCSR) RangeEdges(b, q int) int64 {
	p := bc.NumParts()
	return bc.blockOff[b*p+q+1] - bc.blockOff[b*p+q]
}

// Validate checks the blocked view against the flat CSR: each source's
// cuts are monotone and end at its out-degree, every edge is
// covered exactly once by exactly the partition that owns its
// destination, and the per-(block, partition) counts agree with the
// rows they aggregate. Fuzzed in blocked_fuzz_test.go.
func (bc *BlockedCSR) Validate() error {
	p := bc.NumParts()
	n := bc.srcHi - bc.srcLo
	if len(bc.cut) != n*p {
		return fmt.Errorf("graph: blocked CSR cuts sized %d, want %d", len(bc.cut), n*p)
	}
	if len(bc.blockOff) != bc.NumBlocks()*p+1 {
		return fmt.Errorf("graph: blocked CSR block offsets sized %d, want %d", len(bc.blockOff), bc.NumBlocks()*p+1)
	}
	var total int64
	for v := bc.srcLo; v < bc.srcHi; v++ {
		deg := int64(0)
		for q := 0; q < p; q++ {
			i := (v-bc.srcLo)*p + q
			if q > 0 && bc.cut[i-1] > bc.cut[i] {
				return fmt.Errorf("graph: blocked CSR cuts not monotone at (%d,%d)", v, q)
			}
			if q == p-1 && int64(bc.cut[i]) != int64(bc.g.OutDegree(VertexID(v))) {
				return fmt.Errorf("graph: vertex %d rows end at %d, out-degree %d", v, bc.cut[i], bc.g.OutDegree(VertexID(v)))
			}
			dsts, ws := bc.Row(VertexID(v), q)
			if bc.g.Weighted() != (ws != nil) {
				return fmt.Errorf("graph: vertex %d partition %d weight presence mismatch", v, q)
			}
			for _, d := range dsts {
				if int(d) < bc.partStarts[q] || int(d) >= bc.partStarts[q+1] {
					return fmt.Errorf("graph: edge (%d,%d) filed under partition %d [%d,%d)",
						v, d, q, bc.partStarts[q], bc.partStarts[q+1])
				}
			}
			deg += int64(len(dsts))
			total += int64(len(dsts))
		}
		if deg != int64(bc.g.OutDegree(VertexID(v))) {
			return fmt.Errorf("graph: vertex %d rows cover %d edges, out-degree %d", v, deg, bc.g.OutDegree(VertexID(v)))
		}
		// Concatenating the partition rows in order must reproduce the
		// flat adjacency exactly (same edges, same order).
		k := 0
		flat := bc.g.OutNeighbors(VertexID(v))
		for q := 0; q < p; q++ {
			dsts, _ := bc.Row(VertexID(v), q)
			for _, d := range dsts {
				if flat[k] != d {
					return fmt.Errorf("graph: vertex %d edge %d: blocked order %d, flat order %d", v, k, d, flat[k])
				}
				k++
			}
		}
	}
	if want := bc.g.outOffsets[bc.srcHi] - bc.g.outOffsets[bc.srcLo]; total != want {
		return fmt.Errorf("graph: blocked CSR covers %d edges, range has %d", total, want)
	}
	for b := 0; b < bc.NumBlocks(); b++ {
		lo, hi := bc.Block(b)
		for q := 0; q < p; q++ {
			var cnt int64
			for v := lo; v < hi; v++ {
				dsts, _ := bc.Row(VertexID(v), q)
				cnt += int64(len(dsts))
			}
			if cnt != bc.RangeEdges(b, q) {
				return fmt.Errorf("graph: block %d partition %d aggregates %d edges, rows sum to %d",
					b, q, bc.RangeEdges(b, q), cnt)
			}
		}
	}
	return nil
}
