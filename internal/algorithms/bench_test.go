package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// benchUpdateAlgo times one update-path algorithm on a warm 4-node
// memory-transport cluster over Graph500 R-MAT graphs, and reports the
// update bytes a run ships next to its time and allocations — the
// microbenchmark view of the update_tcp workload. derive turns the
// directed base graph into the algorithm's input.
func benchUpdateAlgo(b *testing.B, derive func(*graph.Graph) *graph.Graph, run func(c core.Engine) error) {
	for _, scale := range []int{13, 15} {
		var g *graph.Graph // built once, not once per b.N calibration round
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			if g == nil {
				g = derive(graph.RMAT(scale, 16, graph.Graph500Params(), 1))
			}
			c := mustAlgCluster(b, g, core.Options{NumNodes: 4})
			if err := run(c); err != nil { // warm-up: slabs, heap
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				if err := run(c); err != nil {
					b.Fatal(err)
				}
				bytes += c.Stats().Totals.UpdateBytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "update-B/op")
		})
	}
}

func BenchmarkCC(b *testing.B) {
	benchUpdateAlgo(b, graph.Symmetrize, func(c core.Engine) error {
		_, err := ConnectedComponents(c)
		return err
	})
}

func BenchmarkSSSP(b *testing.B) {
	weighted := func(g *graph.Graph) *graph.Graph { return graph.RandomWeights(graph.Symmetrize(g), 7) }
	benchUpdateAlgo(b, weighted, func(c core.Engine) error {
		root, _ := graph.LargestOutDegreeVertex(c.Graph())
		_, err := SSSP(c, root)
		return err
	})
}

func BenchmarkPageRank(b *testing.B) {
	directed := func(g *graph.Graph) *graph.Graph { return g }
	benchUpdateAlgo(b, directed, func(c core.Engine) error {
		_, err := PageRank(c, 5, 0.85)
		return err
	})
}
