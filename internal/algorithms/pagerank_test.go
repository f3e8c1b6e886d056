package algorithms

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// seqPageRank is the single-threaded oracle matching PageRank's
// semantics (fixed iterations, no dangling redistribution).
func seqPageRank(g *graph.Graph, iters int, damping float64) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.VertexID(v)) {
				if d := g.OutDegree(u); d > 0 {
					sum += rank[u] / float64(d)
				}
			}
			next[v] = base + damping*sum
		}
		rank = next
	}
	return rank
}

func TestPageRankMatchesSequential(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 14)
	want := seqPageRank(g, 5, 0.85)
	forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
		got, err := PageRank(c, 5, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Fatalf("vertex %d: rank %g, want %g", v, got[v], want[v])
			}
		}
	})
}

func TestPageRankRanksHubsHigher(t *testing.T) {
	// The star hub receives rank from all spokes.
	g := graph.Star(64)
	c, err := core.NewCluster(g, core.Options{NumNodes: 4, Mode: core.ModeSympleGraph})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rank, err := PageRank(c, 10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 64; v++ {
		if rank[0] <= rank[v] {
			t.Fatalf("hub rank %g not above spoke %d rank %g", rank[0], v, rank[v])
		}
	}
}

func TestPageRankRejectsBadArgs(t *testing.T) {
	g := graph.Ring(16)
	c, _ := core.NewCluster(g, core.Options{NumNodes: 2})
	defer c.Close()
	for _, tc := range []struct {
		iters   int
		damping float64
	}{{0, 0.85}, {3, 0}, {3, 1}, {3, -0.5}} {
		if _, err := PageRank(c, tc.iters, tc.damping); err == nil {
			t.Fatalf("iters=%d damping=%g accepted", tc.iters, tc.damping)
		}
	}
}

// TestPageRankCarriesNothing: PageRank's signal has no loop-carried
// dependency, so its pass declares neither Breaks nor Lanes and
// SympleGraph mode runs it as Gemini mode does: the same ranks bit for
// bit, every golden-row counter equal (edges, skips, supersteps, update,
// dependency and control bytes), and no dependency frame sent or waited
// on.
func TestPageRankCarriesNothing(t *testing.T) {
	g := graph.RMAT(11, 8, graph.Graph500Params(), 20)
	for _, nodes := range []int{2, 4} {
		run := func(mode core.Mode) ([]float64, core.RunStats) {
			c, err := core.NewCluster(g, core.Options{NumNodes: nodes, Mode: mode, DepThreshold: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rank, err := PageRank(c, 5, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			return rank, c.Stats().Totals
		}
		row := func(s core.RunStats) goldenRow {
			return goldenRow{edges: s.EdgesTraversed, skipped: s.VerticesSkipped, supersteps: s.Supersteps,
				updateB: s.UpdateBytes, depB: s.DependencyBytes, controlB: s.ControlBytes}
		}
		gem, gs := run(core.ModeGemini)
		sym, ss := run(core.ModeSympleGraph)
		for v := range gem {
			if math.Float64bits(sym[v]) != math.Float64bits(gem[v]) {
				t.Fatalf("p=%d, vertex %d: rank %v, Gemini mode %v", nodes, v, sym[v], gem[v])
			}
		}
		if row(ss) != row(gs) {
			t.Fatalf("p=%d: counters %+v, Gemini mode %+v", nodes, row(ss), row(gs))
		}
		if ss.DependencyMessages != 0 || ss.DependencyWait != 0 {
			t.Fatalf("p=%d: %d dependency frames, %v dependency wait", nodes, ss.DependencyMessages, ss.DependencyWait)
		}
	}
}
