package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/xrand"
)

// PartitionStudy examines the paper's §2.3 remark that incoming edge-cut
// — the one partition family where loop-carried dependency needs no
// cross-machine propagation — "is inefficient and rarely used due to
// load imbalance issues". It reports three per-machine edge-load
// imbalances (max/mean): the engine's contiguous chunking balanced by
// out-edges; the same chunking balanced by in-edges (an idealized
// locality-aware incoming edge-cut); and Pregel-style hash placement of
// vertices with their indivisible in-edge sets. The hub column shows the
// largest single indivisible in-edge set as a fraction of |E| — the
// quantity that would make incoming edge-cut imbalance unavoidable if it
// approached 1/p. At laptop scale it does not bind (hubs hold ~2% of
// |E|), so the measured incoming-cut imbalance stays mild; the study
// quantifies rather than assumes the paper's claim, whose force grows
// with the hub concentration of production graphs.
func PartitionStudy(s *Suite, nodes int) (string, error) {
	b, w := newTable("Graph", "chunked-out max/mean", "chunked-in max/mean", "hashed-in max/mean", "hub share of |E|")
	for _, d := range s.Main {
		g := d.Graph()
		pt, err := partition.NewChunked(g, nodes, 0)
		if err != nil {
			return "", err
		}
		outImb := edgeImbalance(g, pt, func(v graph.VertexID) int { return g.OutDegree(v) })

		inPt, err := chunkByInDegree(g, nodes)
		if err != nil {
			return "", err
		}
		inImb := edgeImbalance(g, inPt, func(v graph.VertexID) int { return g.InDegree(v) })

		hashImb := hashedInImbalance(g, nodes)

		_, hubDeg := largestInDegree(g)
		hubShare := float64(hubDeg) / float64(g.NumEdges())
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.4f\n", d.Name, outImb, inImb, hashImb, hubShare)
	}
	w.Flush()
	return b.String(), nil
}

// hashedInImbalance computes max/mean machine edge load when vertices
// (and therefore their whole in-edge sets) are placed by hash.
func hashedInImbalance(g *graph.Graph, p int) float64 {
	loads := make([]float64, p)
	for v := 0; v < g.NumVertices(); v++ {
		m := int(xrand.Mix(0x9a97, uint64(v)) % uint64(p))
		loads[m] += float64(g.InDegree(graph.VertexID(v)))
	}
	var total, max float64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return max / (total / float64(p))
}

// edgeImbalance returns max/mean of per-machine edge loads.
func edgeImbalance(g *graph.Graph, pt *partition.Partition, deg func(graph.VertexID) int) float64 {
	loads := make([]float64, pt.P)
	for m := 0; m < pt.P; m++ {
		lo, hi := pt.Range(m)
		for v := lo; v < hi; v++ {
			loads[m] += float64(deg(graph.VertexID(v)))
		}
	}
	var total, max float64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return max / (total / float64(pt.P))
}

// chunkByInDegree builds contiguous chunks balanced by in-degree, the
// incoming edge-cut analogue of partition.NewChunked.
func chunkByInDegree(g *graph.Graph, p int) (*partition.Partition, error) {
	n := g.NumVertices()
	total := partition.DefaultAlpha*float64(n) + float64(g.NumEdges())
	perChunk := total / float64(p)
	starts := make([]int, p+1)
	v := 0
	for i := 0; i < p; i++ {
		starts[i] = v
		if i == p-1 {
			break
		}
		var acc float64
		for v < n && acc < perChunk {
			acc += partition.DefaultAlpha + float64(g.InDegree(graph.VertexID(v)))
			v++
		}
	}
	starts[p] = n
	for i := 1; i <= p; i++ {
		if starts[i] < starts[i-1] {
			starts[i] = starts[i-1]
		}
	}
	return &partition.Partition{P: p, NumV: n, Starts: starts}, nil
}

func largestInDegree(g *graph.Graph) (graph.VertexID, int) {
	var best graph.VertexID
	bestDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(graph.VertexID(v)); d > bestDeg {
			best, bestDeg = graph.VertexID(v), d
		}
	}
	return best, bestDeg
}

// DirectionStudy measures BFS under forced traversal directions on the
// skewed (tw) and low-skew (cl) stand-ins — the mechanism behind Table
// 3's cl rows, where the adaptive switch rarely chooses bottom-up so
// SympleGraph ≈ Gemini. Reported per direction: edges traversed by each
// mode and their ratio. Its clusters take the Gemini and SympleGraph
// cells' options.
func DirectionStudy(s *Suite, cfg Config) (string, error) {
	cfg = cfg.Defaults()
	b, w := newTable("Graph", "Direction", "Gemini edges", "SympG. edges", "ratio")
	datasets := []*Dataset{s.ByName("tw"), s.ByName("cl")}
	dirs := []struct {
		name string
		dir  algorithms.Direction
	}{
		{"adaptive", algorithms.DirectionAdaptive},
		{"top-down", algorithms.DirectionTopDown},
		{"bottom-up", algorithms.DirectionBottomUp},
	}
	for _, d := range datasets {
		g := d.Graph()
		roots := bfsRoots(g, cfg.Seed, cfg.BFSRoots)
		for _, dir := range dirs {
			var edges [2]int64 // Gemini, SympleGraph
			for i, v := range []Variant{VariantGemini, VariantSympleGraph} {
				c, err := core.NewCluster(g, options(v, cfg))
				if err != nil {
					return "", err
				}
				for _, root := range roots {
					if _, err := algorithms.BFSWithDirection(c, root, dir.dir); err != nil {
						c.Close()
						return "", err
					}
					edges[i] += c.Stats().Totals.EdgesTraversed
				}
				c.Close()
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.3f\n", d.Name, dir.name, edges[0], edges[1],
				ratio(float64(edges[1]), float64(edges[0])))
		}
	}
	w.Flush()
	return b.String(), nil
}
