package core

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkNewCluster is what a pool slot pays per (epoch, variant,
// mode): chunking, degree classes, four layout views and four blocked
// CSRs over a scale-13 graph.
func BenchmarkNewCluster(b *testing.B) {
	base := graph.RMAT(13, 16, graph.Graph500Params(), 1)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"directed", base},
		{"undirected", graph.Symmetrize(base)},
		{"weighted", graph.RandomWeights(base, 7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := NewCluster(c.g, Options{NumNodes: 4, Mode: ModeSympleGraph})
				if err != nil {
					b.Fatal(err)
				}
				cl.Close()
			}
		})
	}
}
