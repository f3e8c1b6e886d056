package algorithms

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// loopback returns a fresh loopback TCP ring of p endpoints, closed with
// the test.
func loopback(t testing.TB, p int) []comm.Endpoint {
	t.Helper()
	teps, err := comm.NewTCPClusterLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]comm.Endpoint, p)
	for i, e := range teps {
		eps[i] = e
		t.Cleanup(func() { e.Close() })
	}
	return eps
}

// ssspBits runs the bucketed SSSP at width delta (0: the graph's rule) and
// returns the distances as bit patterns.
func ssspBits(root graph.VertexID, delta float64) func(core.Engine) ([]uint32, error) {
	return func(c core.Engine) ([]uint32, error) {
		if delta == 0 {
			delta = bucketWidth(c.Graph())
		}
		dist, err := ssspBuckets(c, root, delta)
		bits := make([]uint32, len(dist))
		for v, d := range dist {
			bits[v] = math.Float32bits(d)
		}
		return bits, err
	}
}

// TestSSSPBucketsMatchBellmanFord: the bucketed SSSP gives the frontier
// Bellman-Ford's distances bit for bit at every machine count, mode,
// transport and Workers, scanning no more edges — on the skewed graphs
// strictly fewer. It scans the same edges in every configuration: a pass
// pushes the changed masters below the first bucket boundary above their
// minimum, which no machine count or filter race changes.
func TestSSSPBucketsMatchBellmanFord(t *testing.T) {
	graphs := append(filterGraphs(), namedGraph{"rmat12", graph.Symmetrize(graph.RMAT(12, 8, graph.Graph500Params(), 34))})
	for _, gc := range graphs {
		g := graph.RandomWeights(gc.g, 35)
		root, _ := graph.LargestOutDegreeVertex(g)
		want, ref := runStats(t, mustAlgCluster(t, g, core.Options{NumNodes: 1}),
			func(c core.Engine) ([]uint32, error) { return refBellmanFord(c, root) })
		skewed := strings.HasPrefix(gc.name, "rmat")
		edges := int64(-1)
		for _, p := range []int{1, 2, 3, 4, 7} {
			for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
				for _, transport := range []string{"mem", "tcp"} {
					for _, workers := range []int{1, 4} {
						t.Run(fmt.Sprintf("%s/p=%d/%v/%s/w=%d", gc.name, p, mode, transport, workers), func(t *testing.T) {
							opts := core.Options{NumNodes: p, Mode: mode, Workers: workers}
							if transport == "tcp" {
								opts.Endpoints = loopback(t, p)
							}
							got, st := runStats(t, mustAlgCluster(t, g, opts), ssspBits(root, 0))
							equalBits(t, got, want)
							if st.EdgesTraversed > ref.EdgesTraversed || (skewed && st.EdgesTraversed >= ref.EdgesTraversed) {
								t.Fatalf("%d edges, Bellman-Ford %d", st.EdgesTraversed, ref.EdgesTraversed)
							}
							if edges >= 0 && st.EdgesTraversed != edges {
								t.Fatalf("%d edges, %d in the previous configuration", st.EdgesTraversed, edges)
							}
							edges = st.EdgesTraversed
						})
					}
				}
			}
		}
	}
}

// constWeights is g with every weight set to w.
func constWeights(g *graph.Graph, w float32) *graph.Graph {
	edges := g.Edges()
	for i := range edges {
		edges[i].Weight = w
	}
	return graph.MustFromEdges(g.NumVertices(), edges, graph.BuildOptions{Weighted: true})
}

// TestSSSPBoundAdvances guards the bucket loop against a bound that does
// not pass the least. With Δ = 0.07, floor(L/Δ)+1 puts the bound on L
// itself at L = 8.75 = 125·Δ (and at 17.5, 33.25, …): a loop that took it
// would wait on an empty bucket forever. nextBound must return the first
// boundary strictly above L for such values and their float32
// neighbours, and runs whose distances sit on boundaries — weights at
// exact multiples of Δ, all-equal weights, a path — must finish within
// n·⌈maxdist/Δ⌉+1 passes with Bellman-Ford's bits.
func TestSSSPBoundAdvances(t *testing.T) {
	for _, delta := range []float64{0.07, 0.1, 1.0 / 3, 0.037, float64(float32(0.1))} {
		for k := 0; k < 2000; k++ {
			f := float32(float64(k) * delta)
			for _, least := range []float64{float64(k) * delta, float64(f),
				float64(math.Nextafter32(f, 0)), float64(math.Nextafter32(f, float32(math.Inf(1))))} {
				b := nextBound(least, delta)
				j := math.Round(b / delta)
				if !(b > least) || j*delta != b || (j-1)*delta > least {
					t.Fatalf("Δ %g: nextBound(%.17g) = %.17g, not the first multiple above", delta, least, b)
				}
			}
		}
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		delta float64 // 0: the graph's rule
	}{
		{"multiples", constWeights(graph.Path(64), 8.75), 0.07},
		{"equal", constWeights(graph.Symmetrize(graph.Uniform(300, 2000, 36)), 1), 0},
		{"path", graph.RandomWeights(graph.Path(200), 37), 0},
	}
	for _, tc := range cases {
		for _, p := range []int{2, 3} { // p > 1: a pass waits on peers, so the deadline can end a stuck run
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				want, _ := runStats(t, mustAlgCluster(t, tc.g, core.Options{NumNodes: 1}),
					func(c core.Engine) ([]uint32, error) { return refBellmanFord(c, 0) })
				c := mustAlgCluster(t, tc.g, core.Options{NumNodes: p})
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second) // a stuck bound fails, not hangs
				defer cancel()
				c.SetBaseContext(ctx)
				got, st := runStats(t, c, ssspBits(0, tc.delta))
				equalBits(t, got, want)
				delta := tc.delta
				if delta == 0 {
					delta = bucketWidth(tc.g)
				}
				maxdist := 0.0
				for _, b := range got {
					if d := float64(math.Float32frombits(b)); !math.IsInf(d, 1) {
						maxdist = math.Max(maxdist, d)
					}
				}
				limit := int64(tc.g.NumVertices())*int64(math.Ceil(maxdist/delta)) + 1
				if passes := st.Supersteps / int64(p); passes > limit {
					t.Fatalf("%d passes, more than n·⌈maxdist/Δ⌉+1 = %d", passes, limit)
				}
			})
		}
	}
}
