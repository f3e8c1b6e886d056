package server

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mutate"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// csrBytes is what g's arrays take: per side offsets, arcs and weights,
// the topology counted once when both sides share it.
func csrBytes(g *graph.Graph) int64 {
	n, m := int64(g.NumVertices()), g.NumEdges()
	sides, weights := int64(2), int64(0)
	if g.SidesShared() {
		sides = 1
	}
	if g.Weighted() {
		weights = 2 * 4 * m
	}
	return sides*(8*(n+1)+4*m) + weights
}

// servedEntry is the graph entry a pool serves g from under name.
func servedEntry(t testing.TB, name string, g *graph.Graph) *graphEntry {
	t.Helper()
	store, err := mutate.NewStore(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return newGraphEntry(name, store)
}

// footprintBatch is one commit of serve_mutate's shape on g: 32 ops, a
// third of them removals.
func footprintBatch(rng *rand.Rand, g *graph.Graph) mutate.Batch {
	var b mutate.Batch
	for len(b.Ops) < 32 {
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		m := mutate.Mutation{Op: mutate.OpAddEdge, Src: src, Dst: graph.VertexID(rng.Intn(g.NumVertices())), Weight: 1}
		if nb := g.OutNeighbors(src); len(b.Ops)%3 == 0 && len(nb) > 0 {
			m = mutate.Mutation{Op: mutate.OpRemoveEdge, Src: src, Dst: nb[rng.Intn(len(nb))]}
		}
		b.Ops = append(b.Ops, m)
	}
	return b
}

// footprintCommits is how many commits the footprint tests drive:
// enough for the retention window to turn over three times.
const footprintCommits = 3 * mutate.DefaultRetention

// allVariants are the serving variants every footprint epoch
// materializes.
var allVariants = []graphVariant{variantDirected, variantUndirected, variantWeighted}

// checkEntryFootprint holds kept, the heap ge's chain keeps after
// footprintCommits commits with every variant materialized at every
// epoch and no query in flight, to the newest directed and undirected
// graphs, the weighted variant's own weights (its topology is the
// directed graph's) and the weight stream, the parent epoch's directed
// graph (the store keeps it until the next commit), the deltas, and a
// slack for the maps, the stream's generator and the page rounding of
// the large arrays.
func checkEntryFootprint(t *testing.T, ge *graphEntry, kept int64) {
	t.Helper()
	st := ge.Latest()
	directed, undirected := st.Graph(variantDirected), st.Graph(variantUndirected)
	variants := csrBytes(directed) + csrBytes(undirected) +
		4*directed.NumEdges() + 4*int64(cap(ge.weights.draws)) // the weighted variant's in-side weights, and the stream
	lo, hi := ge.store.Window()
	parent, err := ge.store.At(hi - 1)
	if err != nil {
		t.Fatal(err)
	}
	variants += csrBytes(parent.Graph())
	var deltas int64
	for ep := lo; ep <= hi; ep++ {
		snap, err := ge.store.At(ep)
		if err != nil {
			t.Fatal(err)
		}
		// 16 B per submitted and effective op, 12 B per undo arc, the
		// fingerprints and the snapshot itself.
		deltas += 16*int64(len(snap.Delta().Ops)) + 28*int64(len(snap.Effective().Ops)) + 512
	}
	const slack = 256 << 10
	if bound := variants + deltas + slack; kept > bound {
		t.Fatalf("graph entry keeps %d B after %d commits: graphs %d B + deltas %d B + slack %d B = %d B",
			kept, footprintCommits, variants, deltas, slack, bound)
	}
	t.Logf("graph entry keeps %d B: graphs %d B, deltas %d B", kept, variants, deltas)
}

// TestGraphEntryFootprint: a served graph keeps its newest epoch's
// variants and the retained deltas, not a graph per retained epoch.
// After footprintCommits commits on a scale-13 R-MAT the entry's heap
// is held to checkEntryFootprint's bound. Keeping a graph and its
// variants per retained epoch kept about 19.7 MB here, against a bound
// near 4.1 MB.
func TestGraphEntryFootprint(t *testing.T) {
	before := liveHeap()
	ge := servedEntry(t, "g", graph.RMAT(13, 16, graph.Graph500Params(), 7))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < footprintCommits; i++ {
		res, err := ge.commit(footprintBatch(rng, ge.Latest().Graph(variantDirected)))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range allVariants {
			res.state.Graph(v)
		}
	}
	checkEntryFootprint(t, ge, liveHeap()-before)
	runtime.KeepAlive(ge)
}

// TestWorkerChainFootprint: a worker keeps a served graph as the
// front-end does. The same commits, reaching it as a full ship of the
// root and then chain-verified deltas, each epoch's variants built for
// slots, leave its chain within TestGraphEntryFootprint's bound. A
// worker that cached a graph and its variants per retained epoch kept
// about 19.7 MB here.
func TestWorkerChainFootprint(t *testing.T) {
	before := liveHeap()
	d := &WorkerDaemon{chains: make(map[string]*graphEntry), partial: make(map[string][]byte)}
	root := graph.RMAT(13, 16, graph.Graph500Params(), 7)
	fp, err := mutate.RootFingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	ref := graphRef{name: "g", epoch: 1, fp: fp}
	st := d.root(ref, root)
	root = nil
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < footprintCommits; i++ {
		b := footprintBatch(rng, st.Graph(variantDirected))
		ref = graphRef{name: "g", epoch: ref.epoch + 1, fp: mutate.ChainFingerprint(ref.fp, b.Encode()), parentFP: ref.fp}
		if st, err = d.commitDelta(ref, b); err != nil {
			t.Fatal(err)
		}
		for _, v := range allVariants {
			st.Graph(v)
		}
	}
	if got := d.deltasApplied.Load(); got != footprintCommits {
		t.Fatalf("worker committed %d deltas, want %d", got, footprintCommits)
	}
	checkEntryFootprint(t, d.chains["g"], liveHeap()-before)
	runtime.KeepAlive(d)
}
