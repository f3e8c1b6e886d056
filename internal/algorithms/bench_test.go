package algorithms

import (
	"fmt"
	"math"
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

// benchDepAlgo times one dependency algorithm on a warm 4-node
// memory-transport cluster over Graph500 R-MAT graphs, in both modes at
// the repo benchmark's engine options (threshold 32 and 2 buffers for
// SympleGraph; 0 and 1 for Gemini), and reports the edges a run traverses
// next to its time — the microbenchmark view of the dep_mem workload.
// derive turns the directed base graph into the algorithm's input.
func benchDepAlgo(b *testing.B, derive func(*graph.Graph) *graph.Graph, run func(c core.Engine) error) {
	for _, scale := range []int{13, 15} {
		var g *graph.Graph // built once, not once per mode and b.N calibration round
		for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
			b.Run(fmt.Sprintf("scale%d/%s", scale, mode), func(b *testing.B) {
				if g == nil {
					g = derive(graph.RMAT(scale, 16, graph.Graph500Params(), 1))
				}
				opts := core.Options{NumNodes: 4, Mode: mode, Workers: 1, DepThreshold: core.DefaultDepThreshold, NumBuffers: 2}
				if mode == core.ModeGemini {
					opts.DepThreshold, opts.NumBuffers = 0, 1
				}
				c := mustAlgCluster(b, g, opts)
				if err := run(c); err != nil { // warm-up: slabs, heap
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var edges int64
				for i := 0; i < b.N; i++ {
					if err := run(c); err != nil {
						b.Fatal(err)
					}
					edges += c.Stats().Totals.EdgesTraversed
				}
				b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
			})
		}
	}
}

func directed(g *graph.Graph) *graph.Graph { return g }

func BenchmarkBFS(b *testing.B) {
	benchDepAlgo(b, directed, func(c core.Engine) error {
		root, _ := graph.LargestOutDegreeVertex(c.Graph())
		_, err := BFS(c, root)
		return err
	})
}

func BenchmarkKCore(b *testing.B) {
	benchDepAlgo(b, graph.Symmetrize, func(c core.Engine) error {
		_, err := KCore(c, 8)
		return err
	})
}

func BenchmarkMIS(b *testing.B) {
	benchDepAlgo(b, graph.Symmetrize, func(c core.Engine) error {
		_, err := MIS(c, 5)
		return err
	})
}

func BenchmarkKMeans(b *testing.B) {
	benchDepAlgo(b, graph.Symmetrize, func(c core.Engine) error {
		_, err := KMeans(c, 16, 3, 5)
		return err
	})
}

func BenchmarkSample(b *testing.B) {
	benchDepAlgo(b, directed, func(c core.Engine) error {
		_, err := Sample(c, 5, 4)
		return err
	})
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
	benchUpdateAlgo(b, directed, func(c core.Engine) error {
		_, err := PageRank(c, 5, 0.85)
		return err
	})
}

// BenchmarkSSSPBucketWidth sweeps SSSP's bucket width — ½, 1 and 2 × the
// rule's Δ, and +Inf, one bucket, which is the frontier Bellman-Ford —
// over the two weighted graphs the repo benchmark runs SSSP on (wsym:
// the symmetrized R-MAT with random weights, update_tcp's; wbase: the
// directed R-MAT with random weights, what the server weighs) on a warm
// 4-node cluster over the memory transport and loopback TCP. Beside the
// time it reports edges/|E| and passes per run; EXPERIMENTS.md's "SSSP
// bucket width" table is its output.
func BenchmarkSSSPBucketWidth(b *testing.B) {
	for _, scale := range []int{13, 15} {
		var graphs []namedGraph // built once, not once per b.N calibration round
		for _, gname := range []string{"wsym", "wbase"} {
			for _, transport := range []string{"mem", "tcp"} {
				for _, width := range []string{"half", "rule", "double", "bellman-ford"} {
					b.Run(fmt.Sprintf("scale%d/%s/%s/%s", scale, gname, transport, width), func(b *testing.B) {
						if graphs == nil {
							base := graph.RMAT(scale, 16, graph.Graph500Params(), 1)
							graphs = []namedGraph{
								{"wsym", graph.RandomWeights(graph.Symmetrize(base), 2)},
								{"wbase", graph.RandomWeights(base, 7)},
							}
						}
						g := graphs[0].g
						if gname == "wbase" {
							g = graphs[1].g
						}
						delta := map[string]float64{"half": 0.5, "rule": 1, "double": 2, "bellman-ford": math.Inf(1)}[width] * bucketWidth(g)
						root, _ := graph.LargestOutDegreeVertex(g)
						opts := core.Options{NumNodes: 4}
						if transport == "tcp" {
							opts.Endpoints = loopback(b, 4)
						}
						c := mustAlgCluster(b, g, opts)
						if _, err := ssspBuckets(c, root, delta); err != nil { // warm-up: slabs, heap
							b.Fatal(err)
						}
						b.ResetTimer()
						var edges, steps int64
						for i := 0; i < b.N; i++ {
							if _, err := ssspBuckets(c, root, delta); err != nil {
								b.Fatal(err)
							}
							st := c.Stats().Totals
							edges, steps = edges+st.EdgesTraversed, steps+st.Supersteps
						}
						b.ReportMetric(float64(edges)/float64(b.N)/float64(g.NumEdges()), "edges/E")
						b.ReportMetric(float64(steps)/float64(b.N)/4, "passes")
						b.ReportMetric(bucketWidth(g), "rule-Δ")
					})
				}
			}
		}
	}
}
