// Package seq provides single-threaded reference implementations of the
// paper's five algorithms (plus the linear-time Matula–Beck K-core
// baseline). They serve two purposes: correctness oracles for the
// distributed engine — every mode of the engine must reproduce their
// results — and the single-thread baselines of the paper's COST analysis
// (§7.4, where GAPBS BFS and Galois MIS play this role).
//
// Algorithms whose result depends on the order neighbors are visited
// (K-means tie-breaking, weighted sampling's prefix walk) take a
// NeighborOrder; RingOrder reproduces the exact order the distributed
// circulant schedule uses, making cross-checks exact rather than merely
// plausible.
package seq

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/xrand"
)

// NeighborOrder returns v's incoming neighbors (and parallel weights, nil
// if unweighted) in the order a traversal should visit them.
type NeighborOrder func(g *graph.Graph, v graph.VertexID) ([]graph.VertexID, []float32)

// AscendingOrder visits incoming neighbors in ascending vertex ID — the
// natural single-machine order.
func AscendingOrder(g *graph.Graph, v graph.VertexID) ([]graph.VertexID, []float32) {
	return g.InNeighbors(v), g.InWeights(v)
}

// RingOrder returns the order the circulant schedule visits v's incoming
// neighbors under partition pt: machines (owner−1), (owner−2), …, owner
// (mod p), ascending source ID within each machine.
func RingOrder(pt *partition.Partition) NeighborOrder {
	return func(g *graph.Graph, v graph.VertexID) ([]graph.VertexID, []float32) {
		all := g.InNeighbors(v)
		ws := g.InWeights(v)
		out := make([]graph.VertexID, 0, len(all))
		var outW []float32
		if ws != nil {
			outW = make([]float32, 0, len(ws))
		}
		d := pt.Owner(v)
		for j := 0; j < pt.P; j++ {
			m := ((d-1-j)%pt.P + pt.P) % pt.P
			lo, hi := pt.Range(m)
			for i, u := range all {
				if int(u) >= lo && int(u) < hi {
					out = append(out, u)
					if ws != nil {
						outW = append(outW, ws[i])
					}
				}
			}
		}
		return out, outW
	}
}

// VertexWeight is the deterministic positive weight of v used by weighted
// neighbor sampling, identical on every machine and in the oracle.
func VertexWeight(seed uint64, v graph.VertexID) float64 {
	return weightKey(seed).UniformWeight(uint64(v))
}

func weightKey(seed uint64) xrand.Prefix { return xrand.Key(seed, 0xabcd) }

// VertexWeights tabulates VertexWeight for vertices [0, n): the sampling
// kernel's replicated vertex property (paper Figure 3d). A prefix walk
// reads the table per scanned edge instead of re-hashing, and the entries
// are the very float64s VertexWeight returns (its leading coordinates
// hashed once), so picks do not change.
func VertexWeights(seed uint64, n int) []float64 {
	wt := make([]float64, n)
	k := weightKey(seed)
	for v := range wt {
		wt[v] = k.UniformWeight(uint64(v))
	}
	return wt
}
