package mutate

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// Apply executes the batch against g and builds the successor graph.
// g is untouched (snapshots are immutable); the result preserves g's
// weightedness. Ops execute in order, so "remove-vertex 3; add-edge
// 3→5" leaves 3→5 present while the reverse order removes it.
func Apply(g *graph.Graph, b Batch) (*graph.Graph, error) {
	ng, _, _, err := apply(g, b, nil)
	return ng, err
}

// apply is Apply that also returns the batch's effective delta: the
// canonical batch (vertex growth, then sorted removals, then sorted
// additions and weight updates) that Diff(g, successor) would compute.
// The successor is g patched with that delta, so a commit costs row
// copies plus work proportional to the arcs the batch touches. undo is
// the delta that patches the successor back into g (into g with its
// parallel arcs collapsed, if it had any). A non-nil derive runs on the
// effective delta while the successor is built, and apply returns once
// both are done.
func apply(g *graph.Graph, b Batch, derive func(eff Batch)) (ng *graph.Graph, eff Batch, undo delta, err error) {
	if err := b.Validate(g); err != nil {
		return nil, Batch{}, delta{}, err
	}
	if !g.Simple() {
		if g, err = collapseParallel(g); err != nil {
			return nil, Batch{}, delta{}, err
		}
	}
	d, undo := effective(g, b)
	eff = d.batch()
	if derive != nil {
		derived := make(chan struct{})
		go func() {
			defer close(derived)
			derive(eff)
		}()
		defer func() { <-derived }()
	}
	if ng, err = d.patch(g); err != nil {
		return nil, Batch{}, delta{}, fmt.Errorf("mutate: patch after batch: %w", err)
	}
	return ng, eff, undo, nil
}

// collapseParallel rebuilds a graph loaded with parallel arcs as a
// simple one, keeping each arc's last weight — its last copy in the
// file, since FromEdges keeps parallel arcs in input order. A batch
// addresses an arc by its endpoints, so a successor never carries
// parallel arcs; only a root snapshot read from a file can, and it pays
// this once.
func collapseParallel(g *graph.Graph) (*graph.Graph, error) {
	edges := g.Edges()
	kept := edges[:0]
	for i, e := range edges {
		if i+1 < len(edges) && edges[i+1].Src == e.Src && edges[i+1].Dst == e.Dst {
			continue
		}
		kept = append(kept, e)
	}
	return graph.FromEdges(g.NumVertices(), kept, graph.BuildOptions{Weighted: g.Weighted()})
}

// delta is a canonical change between two graphs in the form
// graph.Patch takes: both arc lists strictly sorted by (src, dst) and
// disjoint.
type delta struct {
	grow    int          // vertices appended (dropped, when negative)
	removes []graph.Edge // arcs the old graph has and the new one lacks
	upserts []graph.Edge // arcs the new graph gains, or whose weight changed
}

// patch applies the delta to the old graph.
func (d delta) patch(g *graph.Graph) (*graph.Graph, error) {
	return graph.Patch(g, g.NumVertices()+d.grow, d.removes, d.upserts)
}

// batch spells the delta in Diff's op order.
func (d delta) batch() Batch {
	ops := make([]Mutation, 0, d.grow+len(d.removes)+len(d.upserts))
	for i := 0; i < d.grow; i++ {
		ops = append(ops, Mutation{Op: OpAddVertex})
	}
	for _, e := range d.removes {
		ops = append(ops, Mutation{Op: OpRemoveEdge, Src: e.Src, Dst: e.Dst})
	}
	for _, e := range d.upserts {
		ops = append(ops, Mutation{Op: OpAddEdge, Src: e.Src, Dst: e.Dst, Weight: e.Weight})
	}
	return Batch{Ops: ops}
}

// touch records that the batch reaches one arc: through an edge op
// (at = the op's index) or because a remove-vertex op meets the arc in
// the parent graph (at = -1).
type touch struct {
	key uint64 // src<<32 | dst
	at  int32
	add bool
	w   float32
}

func arcKey(src, dst graph.VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }

// effective replays a validated batch over only the arcs it touches
// and returns what actually changes. An arc's final state follows
// from two timestamps, whatever the order ops arrived in: its last edge
// op, and the last remove-vertex op on either endpoint. It is present
// iff that edge op is an add and comes after both removals. Comparing
// the final state with the parent's (one binary search per touched arc)
// drops the no-ops: adds of present arcs, removes of absent ones,
// add-then-remove pairs. The same lookups give the old weight of every
// arc the delta removes or reweights, so the inverse delta (undo) comes
// with it: the removed arcs and old weights back, the added arcs out,
// the added vertices dropped.
func effective(g *graph.Graph, b Batch) (d, undo delta) {
	n0 := graph.VertexID(g.NumVertices())
	weighted := g.Weighted()
	var touches []touch
	var removedAt map[graph.VertexID]int32 // last remove-vertex op per vertex
	for i, m := range b.Ops {
		switch m.Op {
		case OpAddEdge:
			w := m.Weight
			if !weighted {
				w = 1
			}
			touches = append(touches, touch{key: arcKey(m.Src, m.Dst), at: int32(i), add: true, w: w})
		case OpRemoveEdge:
			touches = append(touches, touch{key: arcKey(m.Src, m.Dst), at: int32(i)})
		case OpAddVertex:
			d.grow++
		case OpRemoveVertex:
			if removedAt == nil {
				removedAt = make(map[graph.VertexID]int32)
			}
			if _, again := removedAt[m.Src]; !again && m.Src < n0 {
				for _, u := range g.OutNeighbors(m.Src) {
					touches = append(touches, touch{key: arcKey(m.Src, u), at: -1})
				}
				for _, u := range g.InNeighbors(m.Src) {
					touches = append(touches, touch{key: arcKey(u, m.Src), at: -1})
				}
			}
			removedAt[m.Src] = int32(i)
		}
	}
	sort.Slice(touches, func(i, j int) bool {
		if touches[i].key != touches[j].key {
			return touches[i].key < touches[j].key
		}
		return touches[i].at < touches[j].at
	})
	for i := 0; i < len(touches); i++ {
		if i+1 < len(touches) && touches[i+1].key == touches[i].key {
			continue // not this arc's last touch
		}
		last := touches[i]
		src, dst := graph.VertexID(last.key>>32), graph.VertexID(last.key)
		present := last.add
		for _, v := range [2]graph.VertexID{src, dst} {
			if at, removed := removedAt[v]; removed && at > last.at {
				present = false
			}
		}
		var oldW float32
		had := false
		if src < n0 {
			oldW, had = g.EdgeWeight(src, dst)
		}
		arc, old := graph.Edge{Src: src, Dst: dst}, graph.Edge{Src: src, Dst: dst, Weight: oldW}
		switch {
		case had && !present:
			d.removes = append(d.removes, arc)
			undo.upserts = append(undo.upserts, old)
		case present && !had:
			d.upserts = append(d.upserts, graph.Edge{Src: src, Dst: dst, Weight: last.w})
			undo.removes = append(undo.removes, arc)
		case present && weighted && math.Float32bits(oldW) != math.Float32bits(last.w):
			d.upserts = append(d.upserts, graph.Edge{Src: src, Dst: dst, Weight: last.w})
			undo.upserts = append(undo.upserts, old)
		}
	}
	undo.grow = -d.grow
	return d, undo
}

// PatchUndirected advances the undirected variant across one commit:
// parentU is graph.Symmetrize(parent), eff the commit's effective delta,
// and the result is graph.Symmetrize(child) array for array, weights
// included, built by patching parentU with the symmetric delta instead
// of re-symmetrizing the child. It reads the child's arcs off parent and
// eff, so it never needs the child graph and can run while the commit
// builds it (Store.CommitWith). That delta is its own transpose, so
// graph.Patch keeps the variant's topology shared between its two
// sides. When eff changes no undirected arc and adds no vertex the
// result is parentU itself. The delta goes to graph.Patch as arc lists,
// so it may hold more than MaxBatchOps arcs: removing one hub vertex
// touches every pair it is in.
func PatchUndirected(parentU, parent *graph.Graph, eff Batch) (*graph.Graph, error) {
	d := symmetricDelta(parent, eff)
	if d.grow == 0 && len(d.removes) == 0 && len(d.upserts) == 0 {
		return parentU, nil
	}
	g, err := d.patch(parentU)
	if err != nil {
		return nil, fmt.Errorf("mutate: patching the undirected variant: %w", err)
	}
	return g, nil
}

// symmetricDelta derives the delta between the symmetrized variants of
// parent and its child from the directed effective delta eff between
// them, without materializing either variant or the child: an arc eff
// touches is in the child as eff leaves it, any other as in parent.
// Only an unordered pair {u, v}, u ≠ v, that eff touches can change. A
// pair whose linkage or either arc's weight changed (see
// undirectedPair) emits both of its arcs: two removes, or two upserts
// carrying the child variant's weights. So the delta is its own
// transpose, and on a weighted base one of a pair's upserts may
// rewrite a weight unchanged.
func symmetricDelta(parent *graph.Graph, eff Batch) delta {
	n := graph.VertexID(parent.NumVertices())
	inParent := func(u, v graph.VertexID) (float32, bool) {
		if u >= n || v >= n {
			return 0, false
		}
		return parent.EdgeWeight(u, v)
	}
	edited := make(map[uint64]Mutation) // the child's state of every arc eff touches
	var pairs []uint64                  // arcKey(min, max) of every touched pair
	var d delta
	for _, m := range eff.Ops {
		switch m.Op {
		case OpAddVertex:
			d.grow++
		case OpAddEdge, OpRemoveEdge:
			edited[arcKey(m.Src, m.Dst)] = m
			if u, v := m.Src, m.Dst; u != v {
				pairs = append(pairs, arcKey(min(u, v), max(u, v)))
			}
		}
	}
	inChild := func(u, v graph.VertexID) (float32, bool) {
		if m, ok := edited[arcKey(u, v)]; ok {
			return m.Weight, m.Op == OpAddEdge
		}
		return inParent(u, v)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	for i, p := range pairs {
		if i > 0 && pairs[i-1] == p {
			continue
		}
		u, v := graph.VertexID(p>>32), graph.VertexID(p)
		was, is := symmetrizedPair(inParent, u, v), symmetrizedPair(inChild, u, v)
		switch {
		case was == is:
		case !is.linked:
			d.removes = append(d.removes, graph.Edge{Src: u, Dst: v}, graph.Edge{Src: v, Dst: u})
		default:
			d.upserts = append(d.upserts, graph.Edge{Src: u, Dst: v, Weight: math.Float32frombits(is.uv)},
				graph.Edge{Src: v, Dst: u, Weight: math.Float32frombits(is.vu)})
		}
	}
	for _, l := range [][]graph.Edge{d.removes, d.upserts} {
		sort.Slice(l, func(i, j int) bool { return arcKey(l[i].Src, l[i].Dst) < arcKey(l[j].Src, l[j].Dst) })
	}
	return d
}

// undirectedPair is the pair {u, v} as graph.Symmetrize(g) has it. It is
// linked iff g has either arc, and the variant's arc u→v carries g's
// u→v weight if g has that arc, else the v→u weight (and likewise v→u).
// Weights are float32 bit patterns, 1 on an unweighted graph.
type undirectedPair struct {
	linked bool
	uv, vu uint32
}

// symmetrizedPair reads the pair {u, v} off arc, g's EdgeWeight.
func symmetrizedPair(arc func(u, v graph.VertexID) (float32, bool), u, v graph.VertexID) undirectedPair {
	wuv, hasUV := arc(u, v)
	wvu, hasVU := arc(v, u)
	if !hasUV {
		wuv = wvu
	}
	if !hasVU {
		wvu = wuv
	}
	return undirectedPair{linked: hasUV || hasVU, uv: math.Float32bits(wuv), vu: math.Float32bits(wvu)}
}

// Diff computes a canonical batch transforming old into new:
// AddVertex ops for the vertex-count growth, then removals, then
// additions/weight updates, each in sorted (src, dst) order. It is the
// inverse of Apply in the sense the fuzz target asserts:
// Apply(old, Diff(old, new)) is edge- and vertex-identical to new.
// Weights are compared by bit pattern. Diff walks the adjacency rows of
// both graphs in place, so it allocates only its result. Commits do
// not call it; it is the oracle their effective delta is tested
// against.
func Diff(oldG, newG *graph.Graph) (Batch, error) {
	if newG.NumVertices() < oldG.NumVertices() {
		return Batch{}, fmt.Errorf("mutate: diff target has fewer vertices (%d < %d); vertex slots are never reclaimed",
			newG.NumVertices(), oldG.NumVertices())
	}
	if oldG.Weighted() != newG.Weighted() {
		return Batch{}, fmt.Errorf("mutate: diff across weightedness (old=%v new=%v)", oldG.Weighted(), newG.Weighted())
	}
	var b Batch
	for i := oldG.NumVertices(); i < newG.NumVertices(); i++ {
		b.Ops = append(b.Ops, Mutation{Op: OpAddVertex})
	}
	weighted := newG.Weighted()
	var adds []Mutation
	for v := 0; v < newG.NumVertices(); v++ {
		src := graph.VertexID(v)
		var oldRow []graph.VertexID
		var oldW []float32
		if v < oldG.NumVertices() {
			oldRow, oldW = oldG.OutNeighbors(src), oldG.OutWeights(src)
		}
		newRow, newW := newG.OutNeighbors(src), newG.OutWeights(src)
		add := func(j int) {
			w := float32(1)
			if weighted {
				w = newW[j]
			}
			adds = append(adds, Mutation{Op: OpAddEdge, Src: src, Dst: newRow[j], Weight: w})
		}
		i, j := 0, 0
		for i < len(oldRow) || j < len(newRow) {
			switch {
			case j == len(newRow) || (i < len(oldRow) && oldRow[i] < newRow[j]):
				b.Ops = append(b.Ops, Mutation{Op: OpRemoveEdge, Src: src, Dst: oldRow[i]})
				i++
			case i == len(oldRow) || newRow[j] < oldRow[i]:
				add(j)
				j++
			default: // same (src, dst)
				if weighted && math.Float32bits(oldW[i]) != math.Float32bits(newW[j]) {
					add(j)
				}
				i++
				j++
			}
		}
	}
	b.Ops = append(b.Ops, adds...)
	return b, nil
}

// Equal reports structural equality: same vertex count, same sorted
// edge list, and (when both weighted) same weights. Used by the
// apply∘diff fuzz target and the torn-snapshot chaos assertions.
func Equal(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.Weighted() != b.Weighted() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i].Src != be[i].Src || ae[i].Dst != be[i].Dst {
			return false
		}
		if a.Weighted() && ae[i].Weight != be[i].Weight {
			return false
		}
	}
	return true
}
