package mutate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// applyReference is the map-and-sort Apply that graph.Patch replaced:
// load every edge into a hash map, replay the ops over it, rebuild
// through FromEdges. It stays as the oracle the patch path must match
// array for array.
func applyReference(g *graph.Graph, b Batch) (*graph.Graph, error) {
	if err := b.Validate(g); err != nil {
		return nil, err
	}
	edges := make(map[uint64]float32, g.NumEdges())
	for _, e := range g.Edges() {
		edges[arcKey(e.Src, e.Dst)] = e.Weight
	}
	n := g.NumVertices()
	for _, m := range b.Ops {
		switch m.Op {
		case OpAddEdge:
			w := m.Weight
			if !g.Weighted() {
				w = 1
			}
			edges[arcKey(m.Src, m.Dst)] = w
		case OpRemoveEdge:
			delete(edges, arcKey(m.Src, m.Dst))
		case OpAddVertex:
			n++
		case OpRemoveVertex:
			for k := range edges {
				if graph.VertexID(k>>32) == m.Src || graph.VertexID(k&0xffffffff) == m.Src {
					delete(edges, k)
				}
			}
		}
	}
	out := make([]graph.Edge, 0, len(edges))
	for k, w := range edges {
		out = append(out, graph.Edge{Src: graph.VertexID(k >> 32), Dst: graph.VertexID(k & 0xffffffff), Weight: w})
	}
	return graph.FromEdges(n, out, graph.BuildOptions{Weighted: g.Weighted()})
}

// requireIdentical fails unless a and b hold the same CSR and CSC rows
// (targets, sources and weight bits), which with equal vertex counts
// means the same arrays.
func requireIdentical(t testing.TB, what string, got, want *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid: %v", what, err)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.Weighted() != want.Weighted() {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	sameIDs := slices.Equal[[]graph.VertexID]
	sameBits := func(a, b []float32) bool {
		return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !sameIDs(got.OutNeighbors(id), want.OutNeighbors(id)) || !sameBits(got.OutWeights(id), want.OutWeights(id)) {
			t.Fatalf("%s: out row %d: got %v %v, want %v %v", what, v,
				got.OutNeighbors(id), got.OutWeights(id), want.OutNeighbors(id), want.OutWeights(id))
		}
		if !sameIDs(got.InNeighbors(id), want.InNeighbors(id)) || !sameBits(got.InWeights(id), want.InWeights(id)) {
			t.Fatalf("%s: in row %d: got %v %v, want %v %v", what, v,
				got.InNeighbors(id), got.InWeights(id), want.InNeighbors(id), want.InWeights(id))
		}
	}
}

func requireSameOps(t testing.TB, what string, got, want Batch) {
	t.Helper()
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("%s: %d ops, want %d\n got  %v\n want %v", what, len(got.Ops), len(want.Ops), got.Ops, want.Ops)
	}
	for i := range want.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.Op != w.Op || g.Src != w.Src || g.Dst != w.Dst || math.Float32bits(g.Weight) != math.Float32bits(w.Weight) {
			t.Fatalf("%s: op %d is %v (w=%v), want %v (w=%v)", what, i, g, g.Weight, w, w.Weight)
		}
	}
}

// checkCommit asserts the four identities of one commit parent→child
// and returns the child and its symmetrized variant:
// (a) Apply ≡ applyReference, (b) effective delta ≡ Diff, (c) the
// patched undirected variant ≡ Symmetrize(child), weights included,
// with its sides shared, and the symmetric delta ≡ Diff between the two
// variants, once the upserts that rewrite a weight unchanged are
// dropped.
func checkCommit(t testing.TB, parent, parentU *graph.Graph, b Batch) (child, childU *graph.Graph, eff, symEff Batch) {
	t.Helper()
	want, err := applyReference(parent, b)
	if err != nil {
		t.Fatalf("applyReference: %v", err)
	}
	child, eff, _, err = apply(parent, b, nil)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	requireIdentical(t, "Apply vs reference", child, want)
	diff, err := Diff(parent, child)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOps(t, "effective delta vs Diff", eff, diff)

	wantU := graph.Symmetrize(child)
	symEff = symmetricDelta(parent, eff).batch()
	childU, err = PatchUndirected(parentU, parent, eff)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "patched undirected variant vs Symmetrize", childU, wantU)
	if !childU.SidesShared() {
		t.Fatal("patched undirected variant keeps two copies of its topology")
	}
	symDiff, err := Diff(parentU, wantU)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOps(t, "symmetric delta vs Diff", changesTo(parentU, symEff), symDiff)
	return child, childU, eff, symEff
}

// changesTo is b without the upserts that give an arc of g the weight
// it already has.
func changesTo(g *graph.Graph, b Batch) Batch {
	var out Batch
	for _, m := range b.Ops {
		if m.Op == OpAddEdge && int(m.Src) < g.NumVertices() {
			if w, ok := g.EdgeWeight(m.Src, m.Dst); ok && math.Float32bits(w) == math.Float32bits(m.Weight) {
				continue
			}
		}
		out.Ops = append(out.Ops, m)
	}
	return out
}

// adversarialBatch draws an ordered batch that leans on the cases a
// replay over touched keys can get wrong: arcs hit several times,
// remove-vertex before and after adds on the same vertex, weight
// updates, growth with arcs on the new vertices, self loops, and ops
// that change nothing.
func adversarialBatch(rng *rand.Rand, g *graph.Graph, ops int) Batch {
	n := g.NumVertices()
	vertex := func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }
	weight := func() float32 { return float32(rng.Intn(5)) } // few values: updates to the same weight occur
	existing := func() (graph.VertexID, graph.VertexID) {
		for try := 0; try < 8; try++ {
			v := graph.VertexID(rng.Intn(g.NumVertices())) // not a vertex this batch added
			if nb := g.OutNeighbors(v); len(nb) > 0 {
				return v, nb[rng.Intn(len(nb))]
			}
		}
		return vertex(), vertex()
	}
	var b Batch
	add := func(op Op, s, d graph.VertexID) {
		b.Ops = append(b.Ops, Mutation{Op: op, Src: s, Dst: d, Weight: weight()})
	}
	for len(b.Ops) < ops {
		switch rng.Intn(12) {
		case 0:
			b.Ops = append(b.Ops, Mutation{Op: OpAddVertex})
			n++
			add(OpAddEdge, graph.VertexID(n-1), vertex())
			add(OpAddEdge, vertex(), graph.VertexID(n-1))
		case 1: // isolate, then re-attach
			v := vertex()
			b.Ops = append(b.Ops, Mutation{Op: OpRemoveVertex, Src: v})
			add(OpAddEdge, v, vertex())
		case 2: // attach, then isolate
			v := vertex()
			add(OpAddEdge, vertex(), v)
			b.Ops = append(b.Ops, Mutation{Op: OpRemoveVertex, Src: v})
		case 3: // add then remove one arc
			s, d := vertex(), vertex()
			add(OpAddEdge, s, d)
			add(OpRemoveEdge, s, d)
		case 4: // remove then re-add an arc the graph has
			s, d := existing()
			add(OpRemoveEdge, s, d)
			add(OpAddEdge, s, d)
		case 5: // weight update, or a no-op add on an unweighted graph
			s, d := existing()
			add(OpAddEdge, s, d)
		case 6:
			v := vertex()
			add(OpAddEdge, v, v)
		case 7:
			v := vertex()
			add(OpRemoveEdge, v, v)
		case 8: // reverse arc: the undirected pair may not change
			s, d := existing()
			add(OpAddEdge, d, s)
		case 9:
			s, d := existing()
			add(OpRemoveEdge, s, d)
		case 10:
			add(OpRemoveEdge, vertex(), vertex())
		default:
			add(OpAddEdge, vertex(), vertex())
		}
	}
	return b
}

// TestApplyMatchesReference is the identity property of the O(delta)
// commit path: over random graphs and adversarial ordered batches,
// chained across epochs, every snapshot, effective delta and undirected
// variant equals what the rebuild-everything path produced, and the
// trackers fed effective deltas agree with a from-scratch recompute at
// every epoch.
func TestApplyMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		weighted := seed%4 == 3
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(4*n), weighted)
		if seed%5 == 0 { // self loops in the base graph
			g, _ = Apply(g, Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 0, Dst: 0, Weight: 1}}})
		}
		gU := graph.Symmetrize(g)
		bfs := NewBFSTracker(g, graph.VertexID(rng.Intn(n)))
		core := NewCoreTracker(gU, int(seed%4))
		for epoch := 0; epoch < 10; epoch++ {
			b := adversarialBatch(rng, g, 1+rng.Intn(16))
			child, childU, eff, symEff := checkCommit(t, g, gU, b)
			bfs.Update(child, eff)
			if _, ok := bfs.VerifyScratch(child); !ok {
				t.Fatalf("seed %d epoch %d: BFS tracker fed the effective delta diverged from scratch", seed, epoch)
			}
			core.Update(childU, symEff)
			if _, ok := core.VerifyScratch(childU); !ok {
				t.Fatalf("seed %d epoch %d: k-core tracker fed the symmetric delta diverged from scratch", seed, epoch)
			}
			g, gU = child, childU
		}
	}
}

// TestApplyTargeted pins the orderings by hand, on a weighted graph so
// the surviving weight is checked too.
func TestApplyTargeted(t *testing.T) {
	base := mustGraph(t, 5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 2}, {Src: 1, Dst: 2, Weight: 3},
		{Src: 3, Dst: 1, Weight: 4}, {Src: 4, Dst: 4, Weight: 5},
	}, true)
	cases := []struct {
		name string
		ops  []Mutation
		eff  []Mutation
	}{
		{"remove-vertex then add-edge on it",
			[]Mutation{{Op: OpRemoveVertex, Src: 1}, {Op: OpAddEdge, Src: 1, Dst: 2, Weight: 3}, {Op: OpAddEdge, Src: 1, Dst: 4, Weight: 9}},
			[]Mutation{{Op: OpRemoveEdge, Src: 0, Dst: 1}, {Op: OpRemoveEdge, Src: 1, Dst: 0}, {Op: OpRemoveEdge, Src: 3, Dst: 1},
				{Op: OpAddEdge, Src: 1, Dst: 4, Weight: 9}}},
		{"add-edge then remove-vertex on it",
			[]Mutation{{Op: OpAddEdge, Src: 2, Dst: 3, Weight: 1}, {Op: OpRemoveVertex, Src: 3}},
			[]Mutation{{Op: OpRemoveEdge, Src: 3, Dst: 1}}},
		{"remove-vertex twice around an add",
			[]Mutation{{Op: OpRemoveVertex, Src: 4}, {Op: OpAddEdge, Src: 4, Dst: 0, Weight: 1}, {Op: OpRemoveVertex, Src: 4}},
			[]Mutation{{Op: OpRemoveEdge, Src: 4, Dst: 4}}},
		{"add then remove one arc", []Mutation{{Op: OpAddEdge, Src: 2, Dst: 0, Weight: 1}, {Op: OpRemoveEdge, Src: 2, Dst: 0}}, nil},
		{"remove then add keeps the new weight",
			[]Mutation{{Op: OpRemoveEdge, Src: 0, Dst: 1}, {Op: OpAddEdge, Src: 0, Dst: 1, Weight: 8}},
			[]Mutation{{Op: OpAddEdge, Src: 0, Dst: 1, Weight: 8}}},
		{"last weight wins", []Mutation{{Op: OpAddEdge, Src: 0, Dst: 1, Weight: 8}, {Op: OpAddEdge, Src: 0, Dst: 1, Weight: 1}}, nil},
		{"no-ops", []Mutation{{Op: OpAddEdge, Src: 1, Dst: 2, Weight: 3}, {Op: OpRemoveEdge, Src: 2, Dst: 2}}, nil},
		{"growth with arcs on the new vertex, then isolate it",
			[]Mutation{{Op: OpAddVertex}, {Op: OpAddEdge, Src: 5, Dst: 0, Weight: 1}, {Op: OpAddVertex}, {Op: OpAddEdge, Src: 0, Dst: 6, Weight: 2},
				{Op: OpRemoveVertex, Src: 5}},
			[]Mutation{{Op: OpAddVertex}, {Op: OpAddVertex}, {Op: OpAddEdge, Src: 0, Dst: 6, Weight: 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, eff, _ := checkCommit(t, base, graph.Symmetrize(base), Batch{Ops: c.ops})
			requireSameOps(t, "effective delta", eff, Batch{Ops: c.eff})
		})
	}
}

// TestApplyHubBeyondBatchLimit: one remove-vertex op on a hub expands
// to more arcs than a submitted batch may hold ops. Both the effective
// delta and its symmetric form are internal, so MaxBatchOps does not
// bound them.
func TestApplyHubBeyondBatchLimit(t *testing.T) {
	const n = MaxBatchOps/2 + 10
	base := graph.Star(n) // hub 0, arcs both ways
	b := Batch{Ops: []Mutation{{Op: OpRemoveVertex, Src: 0}, {Op: OpAddEdge, Src: 1, Dst: 2}}}
	child, childU, eff, symEff := checkCommit(t, base, graph.Symmetrize(base), b)
	if len(eff.Ops) <= MaxBatchOps || len(symEff.Ops) <= MaxBatchOps {
		t.Fatalf("deltas of %d and %d ops do not exceed the batch limit %d", len(eff.Ops), len(symEff.Ops), MaxBatchOps)
	}
	if child.NumEdges() != 1 || childU.NumEdges() != 2 {
		t.Fatalf("after isolating the hub: %v, undirected %v", child, childU)
	}
}

// TestApplyCollapsesParallelArcs: a root graph read from a file may
// hold parallel arcs; the successor keeps one of each, with the last
// weight, as the map-based Apply did.
func TestApplyCollapsesParallelArcs(t *testing.T) {
	multi, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 1, Dst: 2}, {Op: OpRemoveEdge, Src: 2, Dst: 1}}}
	want, err := applyReference(multi, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(multi, b)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "successor of a multigraph", got, want)
	if got.NumEdges() != 3 || !got.Simple() {
		t.Fatalf("successor kept parallel arcs: %v", got.Edges())
	}
}

// TestApplyKeepsLastWeightInFile: a weighted file may list an arc many
// times — more than a comparison sort's insertion cutoff — and the first
// batch leaves each arc with the weight of its last line in the file.
func TestApplyKeepsLastWeightInFile(t *testing.T) {
	arcs := [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {2, 0}}
	var text strings.Builder
	last := map[[2]graph.VertexID]float32{}
	for i := 0; i < 60; i++ {
		a := arcs[i%len(arcs)]
		fmt.Fprintf(&text, "%d %d %d\n", a[0], a[1], i+1)
		last[a] = float32(i + 1)
	}
	multi, err := graph.ReadEdgeListText(strings.NewReader(text.String()), graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Simple() {
		t.Fatal("file read without its parallel arcs")
	}
	b := Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 1, Dst: 0, Weight: 0.5}}}
	got, err := Apply(multi, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := applyReference(multi, b)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "successor of a weighted multigraph", got, want)
	for _, e := range got.Edges() {
		if w, ok := last[[2]graph.VertexID{e.Src, e.Dst}]; ok && e.Weight != w {
			t.Errorf("arc %d→%d weighs %g, want its last line's %g", e.Src, e.Dst, e.Weight, w)
		}
	}
}

func TestSnapshotEffective(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	st, err := NewStore(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Latest().Effective(); len(got.Ops) != 0 {
		t.Fatalf("root snapshot has an effective delta: %v", got.Ops)
	}
	b := Batch{Ops: []Mutation{{Op: OpRemoveVertex, Src: 1}, {Op: OpAddEdge, Src: 0, Dst: 1}, {Op: OpAddEdge, Src: 2, Dst: 0}}}
	snap, err := st.Commit(b)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOps(t, "submitted delta", snap.Delta(), b)
	requireSameOps(t, "effective delta", snap.Effective(), Batch{Ops: []Mutation{
		{Op: OpRemoveEdge, Src: 1, Dst: 2}, {Op: OpAddEdge, Src: 2, Dst: 0, Weight: 1},
	}})
}

// serveMutateShape is the serve_mutate workload's commit: an R-MAT
// graph (scale 13 there) and 32-op batches, a third of each removals,
// the additions weighted 1.
func serveMutateShape(scale, batches int) (*graph.Graph, []Batch) {
	g := graph.RMAT(scale, 16, graph.Graph500Params(), 7)
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	out := make([]Batch, batches)
	for i := range out {
		for len(out[i].Ops) < 32 {
			s := graph.VertexID(rng.Intn(n))
			if nb := g.OutNeighbors(s); rng.Intn(3) == 0 && len(nb) > 0 {
				out[i].Ops = append(out[i].Ops, Mutation{Op: OpRemoveEdge, Src: s, Dst: nb[rng.Intn(len(nb))]})
			} else {
				out[i].Ops = append(out[i].Ops, Mutation{Op: OpAddEdge, Src: s, Dst: graph.VertexID(rng.Intn(n)), Weight: 1})
			}
		}
	}
	return g, out
}

var benchGraph *graph.Graph

func BenchmarkApply(b *testing.B) {
	g, batches := serveMutateShape(13, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ng, err := Apply(g, batches[i%len(batches)])
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = ng
	}
}

// BenchmarkStoreCommit chains commits, so the retention window prunes
// as it does in serving. The chain restarts from the root when the
// batches run out: replayed on their own result they would be no-ops.
func BenchmarkStoreCommit(b *testing.B) {
	g, batches := serveMutateShape(13, 16)
	var st *Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(batches) == 0 {
			b.StopTimer()
			var err error
			if st, err = NewStore(g, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		snap, err := st.Commit(batches[i%len(batches)])
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = snap.Graph()
	}
}

// BenchmarkPatchUndirected is the commit's second patch: the undirected
// variant carried across a serve_mutate batch, on an unweighted and a
// weighted base (graph.RandomWeights) at scale 13 and 15. The effective
// deltas are built before the timer starts.
func BenchmarkPatchUndirected(b *testing.B) {
	for _, scale := range []int{13, 15} {
		g, batches := serveMutateShape(scale, 16)
		for _, weighted := range []bool{false, true} {
			base := g
			if weighted {
				base = graph.RandomWeights(g, 5)
			}
			baseU := graph.Symmetrize(base)
			effs := make([]Batch, len(batches))
			for i, bt := range batches {
				var err error
				if _, effs[i], _, err = apply(base, bt, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("scale=%d/weighted=%v", scale, weighted), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % len(batches)
					u, err := PatchUndirected(baseU, base, effs[k])
					if err != nil {
						b.Fatal(err)
					}
					benchGraph = u
				}
			})
		}
	}
}
