// Identity matrix for the one option that shapes the dense driver's
// framing: NumBuffers 2 and 3 must produce byte-for-byte the results,
// work counters, update traffic and dependency payload of NumBuffers 1
// for all eight algorithms, both engine modes, forced dense and sparse
// BFS, cluster sizes 2 and 4, and across a mutation epoch advance —
// differing only in how many frames the dependency payload travels in.
// internal/algorithms pins NumBuffers 1 and 2 to exact counters
// (TestGoldenCounters) and holds 1, 2 and 3 to the internal/seq oracle;
// the exact oracles are re-checked here at the matrix's own graphs. The
// external test package lets the matrix drive the real algorithm
// implementations.
package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/partition"
	"repro/internal/seq"
)

// frameHeader is comm's accounted per-message header.
const frameHeader = 13

// runAlgo runs one named algorithm variant on a fresh cluster and
// returns its result, normalized to a comparable value, with the run's
// counters.
func runAlgo(t *testing.T, algo string, g *graph.Graph, opts core.Options) (interface{}, core.RunStats) {
	t.Helper()
	c, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	defer c.Close()
	var res interface{}
	switch algo {
	case "bfs":
		res, err = algorithms.BFS(c, 1)
	case "bfs-top":
		res, err = algorithms.BFSWithDirection(c, 1, algorithms.DirectionTopDown)
	case "bfs-bottom":
		res, err = algorithms.BFSWithDirection(c, 1, algorithms.DirectionBottomUp)
	case "sssp":
		res, err = algorithms.SSSP(c, 1)
	case "kcore":
		res, err = algorithms.KCore(c, 4)
	case "mis":
		res, err = algorithms.MIS(c, 7)
	case "kmeans":
		res, err = algorithms.KMeans(c, 8, 2, 7)
	case "sampling":
		res, err = algorithms.Sample(c, 7, 3)
	case "pagerank":
		res, err = algorithms.PageRank(c, 4, 0.85)
	case "cc":
		res, err = algorithms.ConnectedComponents(c)
	default:
		t.Fatalf("unknown algorithm %q", algo)
	}
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res, c.Stats().Totals
}

// depSegments is core.DepSegments for the cluster opts would build over g.
func depSegments(g *graph.Graph, opts core.Options, B int) int64 {
	pt, err := partition.NewChunked(g, opts.NumNodes, 0)
	if err != nil {
		panic(err)
	}
	return core.DepSegments(partition.BuildDegreeClass(g, pt, opts.DepThreshold).Highs, B)
}

// requireBuffersIdentity runs algo at NumBuffers 1, 2 and 3 and holds the
// wider runs to the first: results deep-equal; edges traversed, vertices
// skipped, supersteps, update bytes and frames and control bytes equal;
// dependency payload (bytes less frame headers) equal; dependency frames
// in exactly the ratio of the segments each setting cuts. It returns the
// NumBuffers 1 result.
func requireBuffersIdentity(t *testing.T, algo string, g *graph.Graph, opts core.Options) interface{} {
	t.Helper()
	opts.NumBuffers = 1
	want, ref := runAlgo(t, algo, g, opts)
	// The rest make at least one pull pass that carries state. PageRank's
	// pull pass declares neither Breaks nor Lanes, so it sends no
	// dependency frame in either mode.
	dense := algo != "bfs-top" && algo != "sssp" && algo != "cc" && algo != "pagerank"
	if (ref.DependencyMessages > 0) != (dense && opts.Mode == core.ModeSympleGraph) {
		t.Fatalf("%s: %d dependency frames in %v mode", algo, ref.DependencyMessages, opts.Mode)
	}
	for _, B := range []int{2, 3} {
		opts.NumBuffers = B
		got, st := runAlgo(t, algo, g, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NumBuffers %d: result differs from NumBuffers 1", B)
		}
		if st.EdgesTraversed != ref.EdgesTraversed || st.VerticesSkipped != ref.VerticesSkipped ||
			st.Supersteps != ref.Supersteps || st.UpdateBytes != ref.UpdateBytes ||
			st.UpdateMessages != ref.UpdateMessages || st.ControlBytes != ref.ControlBytes {
			t.Fatalf("NumBuffers %d: work or update traffic moved:\n%+v\nNumBuffers 1:\n%+v", B, st, ref)
		}
		if got, want := st.DependencyBytes-frameHeader*st.DependencyMessages,
			ref.DependencyBytes-frameHeader*ref.DependencyMessages; got != want {
			t.Fatalf("NumBuffers %d: %d dependency payload bytes, NumBuffers 1 ships %d", B, got, want)
		}
		if ref.DependencyMessages == 0 {
			if st.DependencyMessages != 0 {
				t.Fatalf("NumBuffers %d: %d dependency frames where NumBuffers 1 sends none", B, st.DependencyMessages)
			}
			continue
		}
		one, cut := depSegments(g, opts, 1), depSegments(g, opts, B)
		if cut <= one {
			t.Fatalf("NumBuffers %d cuts %d segments, NumBuffers 1 %d: the matrix splits nothing", B, cut, one)
		}
		if st.DependencyMessages*one != ref.DependencyMessages*cut {
			t.Fatalf("NumBuffers %d: %d dependency frames against %d, segments %d against %d",
				B, st.DependencyMessages, ref.DependencyMessages, cut, one)
		}
	}
	return want
}

// requireOracle holds the algorithms with an exact sequential oracle to
// it.
func requireOracle(t *testing.T, algo string, g *graph.Graph, res interface{}) {
	t.Helper()
	switch r := res.(type) {
	case *algorithms.BFSResult:
		if want := seq.TopDownBFS(g, 1).Depth; !reflect.DeepEqual(r.Depth, want) {
			t.Fatalf("%s: depths differ from the sequential oracle", algo)
		}
	case *algorithms.KCoreResult:
		if want, _ := seq.KCoreIterative(g, 4); !reflect.DeepEqual(r.InCore, want) {
			t.Fatalf("%s: core membership differs from the sequential oracle", algo)
		}
	case *algorithms.MISResult:
		if want := seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), 7)); !reflect.DeepEqual(r.InMIS, want) {
			t.Fatalf("%s: MIS differs from the sequential oracle", algo)
		}
	}
}

// TestBinnedScanBitIdentity is the full matrix: every algorithm (plus
// BFS pinned to pure dense and pure sparse traversal) × both modes ×
// {2, 4} nodes, each at NumBuffers 1, 2 and 3. First-wins slots (BFS
// parents, CC labels, SSSP relaxations) make the deep-equality a
// byte-stream identity check, not just a value check: any reordering of
// the emitted records would change the winners.
func TestBinnedScanBitIdentity(t *testing.T) {
	base := graph.RMAT(10, 8, graph.Graph500Params(), 23)
	sym := graph.Symmetrize(base)
	weighted := graph.RandomWeights(sym, 24)

	algos := []string{"bfs", "bfs-top", "bfs-bottom", "sssp", "kcore", "mis", "kmeans", "sampling", "pagerank", "cc"}
	for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
		for _, nodes := range []int{2, 4} {
			for _, algo := range algos {
				t.Run(fmt.Sprintf("%s/%s/n%d", algo, mode, nodes), func(t *testing.T) {
					g := base
					switch algo {
					case "sssp":
						g = weighted
					case "kcore", "mis", "kmeans", "cc":
						g = sym
					}
					res := requireBuffersIdentity(t, algo, g, core.Options{NumNodes: nodes, Mode: mode, DepThreshold: 8})
					requireOracle(t, algo, g, res)
				})
			}
		}
	}
}

// TestBinnedScanBitIdentityAcrossEpochs advances a mutation store by
// one committed batch and checks the NumBuffers identity on both the
// parent and the child epoch's snapshot — the engine rebuild path every
// serving-layer epoch advance takes, proving the blocked CSR and the
// range cuts derive identically from any snapshot rather than carrying
// state across epochs. (The HTTP POST /mutate route is covered in
// internal/server.)
func TestBinnedScanBitIdentityAcrossEpochs(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(11, 8, graph.Graph500Params(), 31)) // 100–199 tracked per partition: NumBuffers 3 cuts three segments
	st, err := mutate.NewStore(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := mutate.Batch{Ops: []mutate.Mutation{
		{Op: mutate.OpAddEdge, Src: 1, Dst: 200},
		{Op: mutate.OpAddEdge, Src: 200, Dst: 1},
		{Op: mutate.OpRemoveEdge, Src: g.OutNeighbors(3)[0], Dst: 3},
	}}
	child, err := st.Commit(batch)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := st.At(child.Epoch() - 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*mutate.Snapshot{parent, child} {
		for _, algo := range []string{"bfs", "kcore", "cc"} {
			res := requireBuffersIdentity(t, algo, snap.Graph(),
				core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 8})
			requireOracle(t, algo, snap.Graph(), res)
		}
	}
}
