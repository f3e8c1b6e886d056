package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/partition"
)

// TestClustersShareOneDerivation: clusters over one graph hold one
// derivation (pointer-equal class and layouts) whatever their mode,
// buffers or workers, a Gemini cluster included; concurrent builders
// derive it once; a different threshold or ring width derives its own.
func TestClustersShareOneDerivation(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(10, 8, graph.Graph500Params(), 2))
	build := func(opts core.Options) *core.Cluster {
		c, err := core.NewCluster(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	symple := build(core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold, NumBuffers: 2})
	gemini := build(core.Options{NumNodes: 4, Mode: core.ModeGemini, NumBuffers: 1})
	if !sameDerivation(symple, gemini) {
		t.Fatal("a Gemini and a SympleGraph cluster over one graph derive separately")
	}
	if wide := build(core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold, Workers: 2}); !sameDerivation(symple, wide) {
		t.Fatal("clusters differing only in workers derive separately")
	}
	if all := build(core.Options{NumNodes: 4, Mode: core.ModeSympleGraph}); sameDerivation(symple, all) {
		t.Fatal("a track-all cluster shares a threshold-32 derivation")
	}
	if narrow := build(core.Options{NumNodes: 2, Mode: core.ModeGemini}); core.Derived(narrow)[2] == core.Derived(symple)[2] {
		t.Fatal("a 2-machine cluster shares a 4-machine degree class")
	}

	h := graph.RMAT(10, 8, graph.Graph500Params(), 3)
	clusters := make([]*core.Cluster, 4)
	var wg sync.WaitGroup
	for i := range clusters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clusters[i], _ = core.NewCluster(h, core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold})
		}(i)
	}
	wg.Wait()
	for _, c := range clusters {
		if c == nil {
			t.Fatal("a concurrent build failed")
		}
		defer c.Close()
		if !sameDerivation(c, clusters[0]) {
			t.Fatal("concurrent builders over one graph derived more than once")
		}
	}
}

// TestClosingLastHolderDropsDerivation: the registry holds a derivation
// while a cluster does and forgets it with the last Close (a repeated
// Close releases nothing twice), and a cluster that advanced leaves no
// entry behind either.
func TestClosingLastHolderDropsDerivation(t *testing.T) {
	before := core.LiveDerivations()
	g := graph.RMAT(9, 8, graph.Graph500Params(), 4)
	opts := core.Options{NumNodes: 3, Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold}
	a, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := core.LiveDerivations(); n != before+1 {
		t.Fatalf("two clusters over one graph register %d derivations", n-before)
	}
	a.Close()
	a.Close()
	if n := core.LiveDerivations(); n != before+1 {
		t.Fatalf("with one holder left, %d derivations are registered", n-before)
	}
	c, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDerivation(b, c) {
		t.Fatal("a cluster built while another holds the derivation derives afresh")
	}
	b.Close()
	c.Close()
	if n := core.LiveDerivations(); n != before {
		t.Fatalf("after the last Close, %d derivations are still registered", n-before)
	}

	// An advanced cluster: a sole holder unregisters as it patches, a
	// shared one forks, and neither leaves an entry once closed.
	store, err := mutate.NewStore(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Commit(crossingBatch(g, core.DefaultDepThreshold))
	if err != nil {
		t.Fatal(err)
	}
	for _, holders := range []int{1, 2} {
		cs := make([]*core.Cluster, holders)
		for i := range cs {
			if cs[i], err = core.NewCluster(g, opts); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs[0].Advance(snap.Graph(), snap.Effective()); err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			c.Close()
		}
		if n := core.LiveDerivations(); n != before {
			t.Fatalf("%d holders, one advanced: %d derivations outlive them", holders, n-before)
		}
	}
}

// TestSharedClusterFootprint: a second cluster over a built cluster's
// graph, in the other mode, keeps none of the layout bytes
// TestClusterFootprint allows per stream entry, per blocked CSR cut and
// per vertex, only the allowances for its own inboxes and run state.
func TestSharedClusterFootprint(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(13, 16, graph.Graph500Params(), 1))
	for _, p := range []int{4, 16} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			run := func(mode core.Mode) *core.Cluster {
				c, err := core.NewCluster(g, core.Options{NumNodes: p, Mode: mode, DepThreshold: core.DefaultDepThreshold})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := algorithms.KCore(c, 8); err != nil {
					t.Fatal(err)
				}
				if _, err := algorithms.MIS(c, 7); err != nil {
					t.Fatal(err)
				}
				return c
			}
			first := run(core.ModeSympleGraph)
			defer first.Close()
			run(core.ModeGemini).Close() // fills the process's payload slab
			before := core.LiveHeap()
			second := run(core.ModeGemini)
			defer second.Close()
			kept := int64(core.LiveHeap() - before)
			entries := 0
			for _, lay := range core.Derived(second)[3].([]*partition.Layout) {
				for _, b := range lay.Blocks {
					entries += len(b.Low) + len(b.Tracked)
				}
			}
			bound := int64(1024*p*p*3 + 128<<10) // inbox streams, run state and slab churn
			if unshared := int64(16*entries + 4*g.NumVertices()*p); kept > bound || bound >= unshared {
				t.Fatalf("p=%d: the second cluster keeps %d B against %d B of allowances; its own layouts would hold %d B",
					p, kept, bound, unshared)
			}
		})
	}
}

// TestGeminiClassIsInvisible: Gemini reads no degree class, so over
// TestGoldenCounters' matrix (five dependency algorithms, 2 and 4
// machines, 1 and 2 buffers) its answers and every exact counter are the
// same with its layout classified at 0, where every destination sits in
// the Tracked stream, as at DefaultDepThreshold, where Gemini shares
// SympleGraph's layout.
func TestGeminiClassIsInvisible(t *testing.T) {
	base := graph.RMAT(11, 8, graph.Graph500Params(), 20)
	sym := graph.Symmetrize(base)
	type counters struct {
		edges, skipped, supersteps, updateB, depB, controlB, updateM, depM int64
	}
	run := func(algo string, c *core.Cluster) (any, counters) {
		var res any
		var err error
		switch algo {
		case "bfs":
			root, _ := graph.LargestOutDegreeVertex(c.Graph())
			res, err = algorithms.BFS(c, root)
		case "kcore":
			res, err = algorithms.KCore(c, 4)
		case "mis":
			res, err = algorithms.MIS(c, 7)
		case "kmeans":
			res, err = algorithms.KMeans(c, 8, 2, 7)
		case "sampling":
			res, err = algorithms.Sample(c, 7, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := c.Stats().Totals
		return res, counters{s.EdgesTraversed, s.VerticesSkipped, s.Supersteps, s.UpdateBytes, s.DependencyBytes,
			s.ControlBytes, s.UpdateMessages, s.DependencyMessages}
	}
	for _, algo := range []string{"bfs", "kcore", "mis", "kmeans", "sampling"} {
		g := sym
		if algo == "bfs" || algo == "sampling" {
			g = base
		}
		for _, nodes := range []int{2, 4} {
			for _, buffers := range []int{1, 2} {
				opts := core.Options{NumNodes: nodes, DepThreshold: 16, NumBuffers: buffers}
				var res [2]any
				var cnt [2]counters
				for i, threshold := range []int{0, core.DefaultDepThreshold} {
					c, err := core.NewGeminiClassifiedAt(g, opts, threshold)
					if err != nil {
						t.Fatal(err)
					}
					res[i], cnt[i] = run(algo, c)
					c.Close()
				}
				if !reflect.DeepEqual(res[0], res[1]) || cnt[0] != cnt[1] {
					t.Fatalf("%s n%d b%d: classified at 0 vs %d:\n\t%+v\n\t%+v", algo, nodes, buffers, core.DefaultDepThreshold, cnt[0], cnt[1])
				}
			}
		}
	}
}
