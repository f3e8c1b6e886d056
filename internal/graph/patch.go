package graph

import (
	"fmt"
	"sort"
)

// Patch builds the successor of g over n ≥ |V| vertices with the arcs
// in removes deleted and the arcs in upserts inserted (or, when the
// arc already exists, its weight replaced; a no-op on an unweighted
// graph). The edit lists must be strictly sorted by (Src, Dst) and
// disjoint, every removed arc must exist in g, and g must be simple
// (see Simple). Weights in removes are ignored, as are weights in
// upserts when g is unweighted.
//
// The out-CSR and in-CSC are each built by one linear merge: untouched
// spans move with copy, touched positions are found by binary search in
// their row, and offsets shift by the running insert/remove balance. So
// the cost is O(|E|) memcpy-class work plus O(Δ·log deg) bookkeeping,
// with no per-edge sort or hash. For a simple graph the dual CSR arrays
// are a function of the arc set alone, so the result is array-for-array
// what FromEdges builds from the edited edge list.
func Patch(g *Graph, n int, removes, upserts []Edge) (*Graph, error) {
	if n < g.n {
		return nil, fmt.Errorf("graph: patch shrinks vertex count %d to %d", g.n, n)
	}
	if g.parallel {
		return nil, fmt.Errorf("graph: patch needs a simple graph, %v has parallel arcs", g)
	}
	if n > DefaultMaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds limit %d", n, DefaultMaxVertices)
	}
	out, err := mergeEdits(n, removes, upserts)
	if err != nil {
		return nil, err
	}
	in := make([]edit, len(out))
	for i, e := range out {
		in[i] = edit{row: e.col, col: e.row, w: e.w, remove: e.remove}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].before(in[j]) })

	p := &Graph{n: n}
	if p.outOffsets, p.outTargets, p.outWeights, err = patchSide(g.n, n, g.outOffsets, g.outTargets, g.outWeights, out); err != nil {
		return nil, err
	}
	if p.inOffsets, p.inSources, p.inWeights, err = patchSide(g.n, n, g.inOffsets, g.inSources, g.inWeights, in); err != nil {
		return nil, err
	}
	return p.cacheMaxWeight(), nil
}

// edit is one arc of a patch, addressed as (row, col) of whichever side
// (out-CSR or in-CSC) is being rebuilt.
type edit struct {
	row, col VertexID
	w        float32
	remove   bool
}

func (a edit) before(b edit) bool {
	if a.row != b.row {
		return a.row < b.row
	}
	return a.col < b.col
}

// mergeEdits validates the two edit lists and interleaves them into one
// list sorted by (Src, Dst).
func mergeEdits(n int, removes, upserts []Edge) ([]edit, error) {
	for _, list := range [][]Edge{removes, upserts} {
		for i, e := range list {
			if int(e.Src) >= n || int(e.Dst) >= n {
				return nil, fmt.Errorf("graph: patch arc (%d,%d) out of range [0,%d)", e.Src, e.Dst, n)
			}
			if i > 0 && !arcLess(list[i-1], e) {
				return nil, fmt.Errorf("graph: patch list not strictly sorted at (%d,%d)", e.Src, e.Dst)
			}
		}
	}
	edits := make([]edit, 0, len(removes)+len(upserts))
	i, j := 0, 0
	for i < len(removes) || j < len(upserts) {
		switch {
		case j == len(upserts) || (i < len(removes) && arcLess(removes[i], upserts[j])):
			edits = append(edits, edit{row: removes[i].Src, col: removes[i].Dst, remove: true})
			i++
		case i == len(removes) || arcLess(upserts[j], removes[i]):
			edits = append(edits, edit{row: upserts[j].Src, col: upserts[j].Dst, w: upserts[j].Weight})
			j++
		default:
			return nil, fmt.Errorf("graph: patch both removes and upserts arc (%d,%d)", removes[i].Src, removes[i].Dst)
		}
	}
	return edits, nil
}

func arcLess(a, b Edge) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// patchSide rebuilds one side of the dual CSR. Viewing adj as one long
// (row, col)-sorted sequence, each edit has a global position: the
// lower bound of its col within its row. Positions are non-decreasing
// in edit order, so a single cursor walks adj, copying the span before
// each edit and then skipping (remove), overwriting (upsert of an
// existing arc) or inserting at it.
func patchSide(n0, n1 int, off []int64, adj []VertexID, wts []float32, edits []edit) ([]int64, []VertexID, []float32, error) {
	// Rows n0..n1-1 are new: empty, at the end of adj.
	rowStart := func(v int) int64 {
		if v > n0 {
			v = n0
		}
		return off[v]
	}
	// Pass 1: locate every edit, size the result, shift the offsets.
	pos := make([]int64, len(edits))
	hit := make([]bool, len(edits))
	newOff := make([]int64, n1+1)
	var shift int64
	row := 0 // next row whose new start is still unset
	for i, e := range edits {
		for ; row <= int(e.row); row++ {
			newOff[row] = rowStart(row) + shift
		}
		lo, hi := rowStart(int(e.row)), rowStart(int(e.row)+1)
		k := lo + int64(sort.Search(int(hi-lo), func(k int) bool { return adj[lo+int64(k)] >= e.col }))
		pos[i], hit[i] = k, k < hi && adj[k] == e.col
		switch {
		case e.remove && !hit[i]:
			return nil, nil, nil, fmt.Errorf("graph: patch removes arc (%d,%d) the graph does not have", e.row, e.col)
		case e.remove:
			shift--
		case !hit[i]:
			shift++
		}
	}
	for ; row <= n1; row++ {
		newOff[row] = rowStart(row) + shift
	}

	// Pass 2: merge.
	newAdj := make([]VertexID, int64(len(adj))+shift)
	var newWts []float32
	if wts != nil {
		newWts = make([]float32, len(newAdj))
	}
	var r, w int64 // read cursor in adj, write cursor in newAdj
	copySpan := func(to int64) {
		copy(newAdj[w:], adj[r:to])
		if wts != nil {
			copy(newWts[w:], wts[r:to])
		}
		w += to - r
		r = to
	}
	for i, e := range edits {
		copySpan(pos[i])
		if e.remove || hit[i] {
			r++ // consume the old arc
		}
		if !e.remove {
			newAdj[w] = e.col
			if wts != nil {
				newWts[w] = e.w
			}
			w++
		}
	}
	copySpan(int64(len(adj)))
	return newOff, newAdj, newWts, nil
}
