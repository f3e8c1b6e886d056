package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Patch builds the successor of g over n vertices with the arcs in
// removes deleted and the arcs in upserts inserted (or, when the arc
// already exists, its weight replaced; a no-op on an unweighted graph).
// The edit lists must be strictly sorted by (Src, Dst) and disjoint,
// every removed arc must exist in g, and g must be simple (see Simple).
// Weights in removes are ignored, as are weights in upserts when g is
// unweighted. n may be below |V| only when the vertices it drops, the
// trailing ones, have no arc left after the edit (undoing vertex
// growth); any other shrink is an error.
//
// The out-CSR and in-CSC are each built by one linear merge: untouched
// spans move with copy, touched positions are found by binary search in
// their row, and offsets shift by the running insert/remove balance. So
// the cost is O(|E|) memcpy-class work plus O(Δ·log deg) bookkeeping,
// with no per-edge sort or hash. For a simple graph the dual CSR arrays
// are a function of the arc set alone, so the result is array-for-array
// what FromEdges builds from the edited edge list.
//
// A symmetric graph whose in-side offsets and sources are its out-side
// arrays (Symmetrize builds it so) stays that way when the edit's
// topology is its own transpose (every (u,v) edit has a (v,u) edit of
// the same kind): the result is symmetric too, so its topology is
// merged once and shared by both sides. Weights, which Symmetrize's
// rule leaves direction-dependent, are still patched per side, each
// from its own side's edit weights. Any other edit un-shares.
func Patch(g *Graph, n int, removes, upserts []Edge) (*Graph, error) {
	if g.parallel {
		return nil, fmt.Errorf("graph: patch needs a simple graph, %v has parallel arcs", g)
	}
	if n > DefaultMaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds limit %d", n, DefaultMaxVertices)
	}
	out, err := mergeEdits(max(n, g.n), removes, upserts) // a shrink's edits may name the vertices it drops
	if err != nil {
		return nil, err
	}
	in := make([]edit, len(out))
	for i, e := range out {
		in[i] = edit{row: e.col, col: e.row, w: e.w, remove: e.remove}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].before(in[j]) })

	outPlan, err := planSide(g.n, n, g.outOffsets, g.outTargets, out)
	if err != nil {
		return nil, err
	}
	p := &Graph{n: n, outOffsets: outPlan.off, outTargets: patchArray(outPlan, g.outTargets, out, edit.target)}
	inPlan := outPlan // while the sides are shared, the in-side is planned as the out-side
	if g.SidesShared() && sameTopology(out, in) {
		p.inOffsets, p.inSources = p.outOffsets, p.outTargets
	} else {
		if inPlan, err = planSide(g.n, n, g.inOffsets, g.inSources, in); err != nil {
			return nil, err
		}
		p.inOffsets, p.inSources = inPlan.off, patchArray(inPlan, g.inSources, in, edit.target)
	}
	if g.Weighted() {
		p.outWeights = patchArray(outPlan, g.outWeights, out, edit.weight)
		p.inWeights = patchArray(inPlan, g.inW(), in, edit.weight)
	}
	return p.cacheMaxWeight(), nil
}

// SidesShared reports whether g's in-side offsets and sources are its
// out-side arrays: one copy of the topology serves both sides, as
// Symmetrize builds a symmetric graph and a transpose-closed Patch
// keeps it.
func (g *Graph) SidesShared() bool {
	same := func(a, b []VertexID) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	return &g.inOffsets[0] == &g.outOffsets[0] && same(g.inSources, g.outTargets)
}

// sameTopology reports whether two edit lists add and remove the same
// (row, col) positions; weights may differ.
func sameTopology(a, b []edit) bool {
	return slices.EqualFunc(a, b, func(x, y edit) bool { return x.row == y.row && x.col == y.col && x.remove == y.remove })
}

// edit is one arc of a patch, addressed as (row, col) of whichever side
// (out-CSR or in-CSC) is being rebuilt.
type edit struct {
	row, col VertexID
	w        float32
	remove   bool
}

func (e edit) target() VertexID { return e.col }
func (e edit) weight() float32  { return e.w }

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

// sidePlan places a sorted edit list in one side of the dual CSR.
// Viewing the side's adjacency as one long (row, col)-sorted sequence,
// each edit has a global position: the lower bound of its col within
// its row. Positions are non-decreasing in edit order, so a single
// cursor can walk any array parallel to the adjacency (the adjacency
// itself, or its weights), copying the span before each edit and then
// skipping (remove), overwriting (upsert of an existing arc) or
// inserting at it.
type sidePlan struct {
	off  []int64 // the patched side's offsets
	pos  []int64 // per edit, its position in the old adjacency
	hit  []bool  // per edit, whether the old adjacency has the arc there
	size int64   // the patched side's arc count
}

// planSide locates every edit, sizes the result and shifts the offsets.
// A shrink (n1 < n0) is planned over all n0 rows and then cut, once the
// dropped rows are seen to end up empty.
func planSide(n0, n1 int, off []int64, adj []VertexID, edits []edit) (sidePlan, error) {
	// Rows n0..n1-1 are new: empty, at the end of adj.
	rowStart := func(v int) int64 {
		if v > n0 {
			v = n0
		}
		return off[v]
	}
	top := max(n0, n1)
	pl := sidePlan{off: make([]int64, top+1), pos: make([]int64, len(edits)), hit: make([]bool, len(edits))}
	var shift int64
	row := 0 // next row whose new start is still unset
	for i, e := range edits {
		for ; row <= int(e.row); row++ {
			pl.off[row] = rowStart(row) + shift
		}
		lo, hi := rowStart(int(e.row)), rowStart(int(e.row)+1)
		k := lo + int64(sort.Search(int(hi-lo), func(k int) bool { return adj[lo+int64(k)] >= e.col }))
		pl.pos[i], pl.hit[i] = k, k < hi && adj[k] == e.col
		switch {
		case e.remove && !pl.hit[i]:
			return sidePlan{}, fmt.Errorf("graph: patch removes arc (%d,%d) the graph does not have", e.row, e.col)
		case e.remove:
			shift--
		case !pl.hit[i]:
			shift++
		}
	}
	for ; row <= top; row++ {
		pl.off[row] = rowStart(row) + shift
	}
	if pl.off[n1] != pl.off[top] {
		return sidePlan{}, fmt.Errorf("graph: patch shrinks vertex count %d to %d, but the dropped vertices keep arcs", n0, n1)
	}
	pl.off = pl.off[: n1+1 : n1+1]
	pl.size = int64(len(adj)) + shift
	return pl, nil
}

// patchArray merges one array parallel to a planned side's adjacency
// with the edits, an inserted or overwritten element taking val(edit).
func patchArray[T VertexID | float32](pl sidePlan, old []T, edits []edit, val func(edit) T) []T {
	merged := make([]T, pl.size)
	var r, w int64 // read cursor in old, write cursor in merged
	for i, e := range edits {
		w += int64(copy(merged[w:], old[r:pl.pos[i]]))
		r = pl.pos[i]
		if e.remove || pl.hit[i] {
			r++ // consume the old arc
		}
		if !e.remove {
			merged[w] = val(e)
			w++
		}
	}
	copy(merged[w:], old[r:])
	return merged
}
