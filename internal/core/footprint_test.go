package core_test

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// TestClusterFootprint holds the heap a cluster keeps, once built and
// run, to what its machines scan: 16 bytes per layout stream entry and
// 4 bytes per (source, partition) cut of the blocked CSRs, plus fixed
// allowances — 1 KiB per inbox stream, 8 bytes per vertex for the
// per-cluster tables and 128 KiB for run state. Inboxes sized by their
// bound (1024 messages per (peer, kind) stream) instead of their backlog
// would keep megabytes more at p=16.
func TestClusterFootprint(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(13, 16, graph.Graph500Params(), 1))
	for _, p := range []int{4, 16} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			run := func() *core.Cluster {
				c, err := core.NewCluster(g, core.Options{NumNodes: p, Mode: core.ModeSympleGraph})
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
			// A first cluster fills the process's payload slab, which
			// outlives every cluster: the second one's runs reuse it.
			run().Close()
			before := core.LiveHeap()
			c := run()
			defer c.Close()
			kept := int64(core.LiveHeap() - before)
			entries := 0
			for _, lay := range core.Derived(c)[3].([]*partition.Layout) {
				for _, b := range lay.Blocks {
					entries += len(b.Low) + len(b.Tracked)
				}
			}
			n := g.NumVertices()
			bound := int64(16*entries + 4*n*p + // layout streams, blocked CSR cuts
				8*n + // degree class and partition tables
				1024*p*p*3 + // one inbox stream per (peer, kind)
				128<<10) // run state and slab churn
			if kept > bound {
				t.Fatalf("p=%d keeps %d B: %d stream entries, %d cuts, %d inbox streams allow %d B",
					p, kept, entries, n*p, p*p*3, bound)
			}
		})
	}
}
