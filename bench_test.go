// Package repro's top-level benchmarks regenerate the paper's evaluation
// (§7): one benchmark per table and figure, each driving the same harness
// as cmd/sgbench at a reduced scale, plus per-(system, algorithm) cell
// benchmarks that report the paper's metrics — edges traversed and
// communication bytes — alongside wall time. Absolute numbers are
// simulated-cluster numbers; the shapes are the reproduction target (see
// EXPERIMENTS.md).
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/seq"
)

// benchScale keeps auto-tuned benchmark iterations tractable.
const benchScale = 11

func benchSuite() *bench.Suite { return bench.NewSuite(benchScale) }

func benchConfig() bench.Config {
	return bench.Config{Nodes: 8, BFSRoots: 2, KCoreK: 8, KMeansIters: 2, SampleRounds: 2, Seed: 42}
}

// reportCell attaches the paper's metrics to a benchmark result.
func reportCell(b *testing.B, m bench.Measurement) {
	b.ReportMetric(float64(m.EdgesTraversed), "edges/op")
	b.ReportMetric(float64(m.UpdateBytes), "updateB/op")
	b.ReportMetric(float64(m.DependencyBytes), "depB/op")
}

// BenchmarkCell measures every (system, algorithm) cell on the s27
// stand-in — the per-cell granularity of Tables 4/5/6.
func BenchmarkCell(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	d := s.ByName("s27")
	for _, a := range bench.Algos {
		for _, v := range []bench.Variant{bench.VariantGemini, bench.VariantSympleGraph, bench.VariantDGalois} {
			if v == bench.VariantDGalois && a == bench.AlgoSampling {
				continue // not available in D-Galois (§7.1)
			}
			b.Run(fmt.Sprintf("%s/%s", a, v.Name), func(b *testing.B) {
				var last bench.Measurement
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(v, a, d, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				reportCell(b, last)
			})
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset statistics).
func BenchmarkTable1Datasets(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if out := bench.Table1(s); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2KCoreSweep regenerates Table 2 (K-core vs K).
func BenchmarkTable2KCoreSweep(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(s, &bench.Matrix{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3LargeGraphs regenerates Table 3 (the gsh/cl stand-ins).
func BenchmarkTable3LargeGraphs(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(s, &bench.Matrix{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Main regenerates the main comparison matrix and Table 4;
// the same cells underlie Tables 5 and 6, which BenchmarkTable5 and
// BenchmarkTable6 render from a fresh measurement. Each iteration
// measures into a fresh matrix.
func BenchmarkTable4Main(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(s, &bench.Matrix{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5EdgesTraversed regenerates Table 5.
func BenchmarkTable5EdgesTraversed(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if out, err := bench.Table5(s, &bench.Matrix{}, cfg); err != nil || len(out) == 0 {
			b.Fatal("empty table", err)
		}
	}
}

// BenchmarkTable6Communication regenerates Table 6.
func BenchmarkTable6Communication(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if out, err := bench.Table6(s, &bench.Matrix{}, cfg); err != nil || len(out) == 0 {
			b.Fatal("empty table", err)
		}
	}
}

// BenchmarkTable7BestNodes regenerates Table 7 (best node count, MIS).
func BenchmarkTable7BestNodes(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table7(s, &bench.Matrix{}, cfg, []int{2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10Scalability regenerates Figure 10 (MIS scalability).
func BenchmarkFigure10Scalability(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure10(s, &bench.Matrix{}, cfg, []int{2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("incomplete series")
		}
	}
}

// BenchmarkFigure11Ablation regenerates Figure 11 (optimization
// breakdown: circulant / +DB / +DP / full).
func BenchmarkFigure11Ablation(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure11(s, &bench.Matrix{}, cfg, bench.Algos)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkCOST regenerates the §7.4 COST comparison.
func BenchmarkCOST(b *testing.B) {
	s := benchSuite()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.COST(s, &bench.Matrix{}, cfg, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialBaselines measures the single-thread references
// (the COST baselines).
func BenchmarkSequentialBaselines(b *testing.B) {
	g := graph.Symmetrize(graph.RMAT(benchScale, 16, graph.Graph500Params(), 1))
	root, _ := graph.LargestOutDegreeVertex(g)
	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.DirectionOptimizingBFS(g, root)
		}
	})
	b.Run("MIS", func(b *testing.B) {
		colors := seq.MISColors(g.NumVertices(), 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq.GreedyMIS(g, colors)
		}
	})
	b.Run("KCoreMatulaBeck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.Coreness(g)
		}
	})
	b.Run("Sampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.SampleNeighbors(g, 1, i, nil)
		}
	})
}
