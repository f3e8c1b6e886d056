package algorithms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
)

// TestHierarchicalSampleDistribution holds the hierarchical fallback to
// its distribution, which ValidateSample (any in-neighbor will do) and the
// golden digest (one fixed draw) do not: on 4 machines, each hub's
// in-neighbors are spread over every machine, some machines holding
// exactly one, and over 2 000 draws per hub (rounds × seeds) the pick
// frequencies must match the neighbors' weight shares within a
// chi-square bound. It runs in Gemini mode and in SympleGraph mode with a
// threshold above every degree, where no vertex is tracked; a combine
// that kept the first arrival, or a local walk that ignored its draw,
// concentrates the picks and fails it.
func TestHierarchicalSampleDistribution(t *testing.T) {
	const (
		// The chunking balances 8·vertices + out-edges with 64-aligned
		// cuts: 480 vertices and a few dozen edges cut at 128, 256 and
		// 384 (checked below).
		n, nodes, span = 480, 4, 128
		rounds         = 40
		seeds          = 50
		firstSource    = 20 // a hub's sources on machine m start at m·span + firstSource
	)
	// perMachine[h][m] is how many in-neighbors hub h has on machine m.
	perMachine := [][nodes]int{{1, 1, 1, 1}, {3, 1, 4, 2}, {2, 5, 1, 1}, {1, 3, 2, 4}}
	hubs := make([]graph.VertexID, len(perMachine))
	for h := range hubs {
		hubs[h] = graph.VertexID(h*span + 5)
	}
	var edges []graph.Edge
	next := firstSource
	for h, counts := range perMachine {
		for m, k := range counts {
			for j := 0; j < k; j++ {
				edges = append(edges, graph.Edge{Src: graph.VertexID(m*span + next + j), Dst: hubs[h]})
			}
		}
		next += 8
	}
	g := graph.MustFromEdges(n, edges, graph.BuildOptions{})

	// expected[h][i] is the number of times hub h should pick its i-th
	// in-neighbor: the sum of the neighbor's weight share over the draws.
	expected := make([][]float64, len(hubs))
	for h, hub := range hubs {
		expected[h] = make([]float64, g.InDegree(hub))
	}
	for s := uint64(1); s <= seeds; s++ {
		wt := seq.VertexWeights(s, n)
		for h, hub := range hubs {
			var total float64
			for _, u := range g.InNeighbors(hub) {
				total += wt[u]
			}
			for i, u := range g.InNeighbors(hub) {
				expected[h][i] += rounds * wt[u] / total
			}
		}
	}

	for _, tc := range []struct {
		mode      core.Mode
		threshold int
	}{{core.ModeGemini, 0}, {core.ModeSympleGraph, 64}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			c := mustAlgCluster(t, g, core.Options{NumNodes: nodes, Mode: tc.mode, Workers: 1, DepThreshold: tc.threshold})
			if err := c.Run(func(w *core.Worker) error {
				if lo, hi := w.MasterRange(); lo != w.ID()*span || hi != min(lo+span, n) {
					return fmt.Errorf("machine %d masters [%d,%d), the hubs' layout assumes %d-vertex ranges", w.ID(), lo, hi, span)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			counts := make([]map[uint32]int, len(hubs))
			for h := range counts {
				counts[h] = map[uint32]int{}
			}
			for s := uint64(1); s <= seeds; s++ {
				res, err := Sample(c, s, rounds)
				if err != nil {
					t.Fatal(err)
				}
				if res.ExactPicks != 0 {
					t.Fatalf("seed %d: %d exact picks, want every pick hierarchical", s, res.ExactPicks)
				}
				for _, picks := range res.Picks {
					for h, hub := range hubs {
						counts[h][picks[hub]]++
					}
				}
			}
			for h, hub := range hubs {
				in := g.InNeighbors(hub)
				var chi2 float64
				for i, u := range in {
					d := float64(counts[h][uint32(u)]) - expected[h][i]
					chi2 += d * d / expected[h][i]
				}
				if bound := chiSquareBound(len(in) - 1); chi2 > bound {
					t.Errorf("hub %d (%v in-neighbors per machine): χ² = %.1f over %d degrees of freedom, bound %.1f; picks %v",
						hub, perMachine[h], chi2, len(in)-1, bound, counts[h])
				}
			}
		})
	}
}

// chiSquareBound is the chi-square quantile at 1 − 10⁻⁴ for df degrees of
// freedom, by the Wilson–Hilferty approximation.
func chiSquareBound(df int) float64 {
	const z = 3.719 // the standard normal quantile at 1 − 10⁻⁴
	k := float64(df)
	return k * math.Pow(1-2/(9*k)+z*math.Sqrt(2/(9*k)), 3)
}
