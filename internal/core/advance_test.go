package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/partition"
	"repro/internal/seq"
)

// shapedBatch is one commit shaped like the serving benchmark's: 32 ops,
// every third removing an arc of the chain's root graph (often already
// gone, so a no-op), the rest adding a random arc.
func shapedBatch(rng *rand.Rand, n int, rootEdges []graph.Edge) mutate.Batch {
	b := mutate.Batch{Ops: make([]mutate.Mutation, 32)}
	for j := range b.Ops {
		if j%3 == 2 {
			e := rootEdges[rng.Intn(len(rootEdges))]
			b.Ops[j] = mutate.Mutation{Op: mutate.OpRemoveEdge, Src: e.Src, Dst: e.Dst}
		} else {
			b.Ops[j] = mutate.Mutation{Op: mutate.OpAddEdge, Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1}
		}
	}
	return b
}

// crossingBatch lifts the vertex whose in-degree sits closest below the
// threshold to it, so the tracked set at that threshold changes.
func crossingBatch(g *graph.Graph, threshold int) mutate.Batch {
	best := -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(graph.VertexID(v)); d < threshold && (best < 0 || d > g.InDegree(graph.VertexID(best))) {
			best = v
		}
	}
	var b mutate.Batch
	for u := 0; len(b.Ops) < threshold-g.InDegree(graph.VertexID(best)); u++ {
		if !g.HasEdge(graph.VertexID(u), graph.VertexID(best)) {
			b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpAddEdge, Src: graph.VertexID(u), Dst: graph.VertexID(best), Weight: 1})
		}
	}
	return b
}

// startMovingBatch adds arcs out of the first vertices until the chunked
// partition of the result has different starts than g's.
func startMovingBatch(t *testing.T, g *graph.Graph, nodes int) mutate.Batch {
	starts := func(g *graph.Graph) []int {
		pt, err := partition.NewChunked(g, nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pt.Starts
	}
	n := g.NumVertices()
	var b mutate.Batch
	for i := 0; i < n*n; i++ {
		b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpAddEdge, Src: graph.VertexID(i / n), Dst: graph.VertexID(i % n), Weight: 1})
		if len(b.Ops)%64 != 0 {
			continue
		}
		g2, err := mutate.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(starts(g2), starts(g)) {
			return b
		}
	}
	t.Fatal("no batch moves a partition start")
	return b
}

// TestAdvanceMatchesFreshBuild: a cluster advanced across a 10-epoch
// chain, in both modes at thresholds 0 and 32, equals NewCluster over
// each epoch's graph field for field — partition, degree class, both
// block streams and the blocked CSR — for all three serving variants,
// and answers like the sequential oracles there. The chain mixes batches
// shaped like the serving benchmark's with ones built to cross the
// tracked threshold, add a vertex, remove a vertex, and move a partition
// start (the path that derives afresh).
func TestAdvanceMatchesFreshBuild(t *testing.T) {
	const nodes, epochs = 4, 10
	root := graph.RMAT(9, 16, graph.Graph500Params(), 3)
	rootEdges := root.Edges()
	for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
		for _, threshold := range []int{0, 32} {
			t.Run(fmt.Sprintf("%v/threshold=%d", mode, threshold), func(t *testing.T) {
				opts := core.Options{NumNodes: nodes, Mode: mode, DepThreshold: threshold, NumBuffers: 2}
				variants := []func(*graph.Graph) *graph.Graph{
					func(g *graph.Graph) *graph.Graph { return g },
					graph.Symmetrize,
					func(g *graph.Graph) *graph.Graph { return graph.RandomWeights(g, 7) },
				}
				clusters := make([]*core.Cluster, len(variants))
				for i, variant := range variants {
					c, err := core.NewCluster(variant(root), opts)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					clusters[i] = c
				}
				rng := rand.New(rand.NewSource(int64(threshold) + 1))
				g := root
				for e := 2; e <= epochs+1; e++ {
					var b mutate.Batch
					switch e {
					case 3:
						b = crossingBatch(g, 32)
					case 5:
						b = shapedBatch(rng, g.NumVertices(), rootEdges)
						b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpAddVertex})
					case 7:
						b = shapedBatch(rng, g.NumVertices(), rootEdges)
						b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpRemoveVertex, Src: graph.VertexID(rng.Intn(g.NumVertices()))})
					case 9:
						b = startMovingBatch(t, g, nodes)
					default:
						b = shapedBatch(rng, g.NumVertices(), rootEdges)
					}
					store, err := mutate.NewStore(g, 2)
					if err != nil {
						t.Fatal(err)
					}
					snap, err := store.Commit(b)
					if err != nil {
						t.Fatal(err)
					}
					g = snap.Graph()
					for i, variant := range variants {
						vg := variant(g)
						if err := clusters[i].Advance(vg, snap.Effective()); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(core.Derived(clusters[i]), core.FreshDerived(clusters[i], vg)) {
							t.Fatalf("epoch %d, variant %d: the advanced cluster differs from a fresh build", e, i)
						}
					}
					checkOracles(t, e, clusters)
				}
			})
		}
	}
}

// TestAdvanceForksSharedDerivation: a SympleGraph cluster and a Gemini
// sibling share one derivation per serving variant until the first
// advances. It forks once, then patches its own copy in place, equalling
// a fresh build at every epoch of the chain (one step crosses the tracked
// threshold, so the class is patched too). The sibling keeps equalling a
// fresh build at the root, a cluster built over the root later adopts the
// sibling's derivation, and both answer like the oracles at their epochs.
func TestAdvanceForksSharedDerivation(t *testing.T) {
	const nodes = 4
	root := graph.RMAT(9, 16, graph.Graph500Params(), 3)
	rootEdges := root.Edges()
	variants := []func(*graph.Graph) *graph.Graph{
		func(g *graph.Graph) *graph.Graph { return g },
		graph.Symmetrize,
		func(g *graph.Graph) *graph.Graph { return graph.RandomWeights(g, 7) },
	}
	build := func(g *graph.Graph, mode core.Mode) *core.Cluster {
		opts := core.Options{NumNodes: nodes, Mode: mode, DepThreshold: core.DefaultDepThreshold, NumBuffers: 2}
		if mode == core.ModeGemini {
			opts.DepThreshold, opts.NumBuffers = 0, 1
		}
		c, err := core.NewCluster(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	roots := make([]*graph.Graph, len(variants))
	movers, siblings := make([]*core.Cluster, len(variants)), make([]*core.Cluster, len(variants))
	for i, variant := range variants {
		roots[i] = variant(root)
		movers[i], siblings[i] = build(roots[i], core.ModeSympleGraph), build(roots[i], core.ModeGemini)
		if !sameDerivation(movers[i], siblings[i]) {
			t.Fatalf("variant %d: the two modes' clusters derive separately", i)
		}
	}
	forked := make([]*partition.Layout, len(variants))
	rng := rand.New(rand.NewSource(5))
	g := root
	for e := 2; e <= 4; e++ {
		b := shapedBatch(rng, g.NumVertices(), rootEdges)
		if e == 3 {
			b = crossingBatch(g, core.DefaultDepThreshold)
		}
		store, err := mutate.NewStore(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		g = snap.Graph()
		for i, variant := range variants {
			vg := variant(g)
			if err := movers[i].Advance(vg, snap.Effective()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(core.Derived(movers[i]), core.FreshDerived(movers[i], vg)) {
				t.Fatalf("epoch %d, variant %d: the advanced cluster differs from a fresh build", e, i)
			}
			if !reflect.DeepEqual(core.Derived(siblings[i]), core.FreshDerived(siblings[i], roots[i])) {
				t.Fatalf("epoch %d, variant %d: the sibling moved with the advanced cluster", e, i)
			}
			if sameDerivation(movers[i], siblings[i]) {
				t.Fatalf("epoch %d, variant %d: the advanced cluster still shares its sibling's derivation", e, i)
			}
			lay := core.Derived(movers[i])[3].([]*partition.Layout)[0]
			if forked[i] == nil {
				forked[i] = lay
			} else if lay != forked[i] {
				t.Fatalf("epoch %d, variant %d: a sole holder forked again instead of patching in place", e, i)
			}
			if late := build(roots[i], core.ModeSympleGraph); !sameDerivation(late, siblings[i]) {
				t.Fatalf("epoch %d, variant %d: a cluster built over the root does not adopt the sibling's derivation", e, i)
			}
		}
		checkOracles(t, e, movers)
		checkOracles(t, 1, siblings)
	}
}

// sameDerivation reports whether two clusters hold one derivation: the
// same degree class and the same layout per machine, by pointer.
func sameDerivation(a, b *core.Cluster) bool {
	da, db := core.Derived(a), core.Derived(b)
	if da[2] != db[2] {
		return false
	}
	la, lb := da[3].([]*partition.Layout), db[3].([]*partition.Layout)
	return len(la) == len(lb) && slices.Equal(la, lb)
}

// checkOracles runs the six serving algorithms on the advanced clusters
// of one epoch (directed: BFS, PageRank; undirected: K-core, MIS, CC;
// weighted: SSSP) and compares them with the sequential oracles.
func checkOracles(t *testing.T, epoch int, clusters []*core.Cluster) {
	t.Helper()
	dg, ug, wg := clusters[0].Graph(), clusters[1].Graph(), clusters[2].Graph()
	src, _ := graph.LargestOutDegreeVertex(dg)
	fail := func(algo string, err error, ok bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("epoch %d %s: %v", epoch, algo, err)
		}
		if !ok {
			t.Fatalf("epoch %d %s: differs from the sequential oracle", epoch, algo)
		}
	}
	bfs, err := algorithms.BFS(clusters[0], src)
	fail("bfs", err, err == nil && slices.Equal(bfs.Depth, seq.TopDownBFS(dg, src).Depth))
	pr, err := algorithms.PageRank(clusters[0], 5, 0.85)
	fail("pagerank", err, err == nil && closeTo(pr, seqPageRank(dg, 5, 0.85)))
	kc, err := algorithms.KCore(clusters[1], 8)
	want, _ := seq.KCoreIterative(ug, 8)
	fail("kcore", err, err == nil && slices.Equal(kc.InCore, want))
	mis, err := algorithms.MIS(clusters[1], 7)
	fail("mis", err, err == nil && slices.Equal(mis.InMIS, seq.GreedyMIS(ug, seq.MISColors(ug.NumVertices(), 7))))
	cc, err := algorithms.ConnectedComponents(clusters[1])
	fail("cc", err, err == nil && slices.Equal(cc, seqComponents(ug)))
	dist, err := algorithms.SSSP(clusters[2], src)
	fail("sssp", err, err == nil && slices.Equal(dist, seqDijkstra(wg, src)))
}

func closeTo(got, want []float64) bool {
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			return false
		}
	}
	return len(got) == len(want)
}

func seqPageRank(g *graph.Graph, iters int, damping float64) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for v := range next {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.VertexID(v)) {
				sum += rank[u] / float64(g.OutDegree(u))
			}
			next[v] = (1-damping)/float64(n) + damping*sum
		}
		rank = next
	}
	return rank
}

// seqComponents labels every vertex of a symmetric graph with the least
// vertex of its component.
func seqComponents(g *graph.Graph) []uint32 {
	label := make([]uint32, g.NumVertices())
	for v := range label {
		label[v] = math.MaxUint32
	}
	for v := range label {
		if label[v] != math.MaxUint32 {
			continue
		}
		label[v] = uint32(v)
		for stack := []graph.VertexID{graph.VertexID(v)}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.OutNeighbors(u) {
				if label[w] == math.MaxUint32 {
					label[w] = uint32(v)
					stack = append(stack, w)
				}
			}
		}
	}
	return label
}

func seqDijkstra(g *graph.Graph, root graph.VertexID) []float32 {
	n := g.NumVertices()
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = algorithms.InfDist
	}
	dist[root] = 0
	done := make([]bool, n)
	for {
		best := -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < algorithms.InfDist && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		if best < 0 {
			return dist
		}
		done[best] = true
		ws := g.OutWeights(graph.VertexID(best))
		for i, u := range g.OutNeighbors(graph.VertexID(best)) {
			dist[u] = min(dist[u], dist[best]+ws[i])
		}
	}
}
