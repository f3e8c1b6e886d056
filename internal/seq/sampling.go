package seq

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// NotSampled marks vertices that drew no neighbor (no incoming edges).
const NotSampled = ^uint32(0)

// SampleNeighbors draws, for every vertex, one incoming neighbor with
// probability proportional to the neighbor's vertex weight — the paper's
// graph-sampling kernel (Figure 3d): walk the neighbor prefix sums until
// they cross a uniform draw, the loop-carried data dependency. The draw
// r_v is deterministic per (seed, round, v); weights come from
// VertexWeight(seed, ·). The visit order decides which neighbor a given
// prefix crossing selects, so exact distributed equivalence requires the
// matching NeighborOrder.
//
// It returns the picked neighbor per vertex and the number of neighbor
// visits (the traversal cost the paper's Table 5 reports).
func SampleNeighbors(g *graph.Graph, seed uint64, round int, order NeighborOrder) ([]uint32, int64) {
	if order == nil {
		order = AscendingOrder
	}
	n := g.NumVertices()
	wt := VertexWeights(seed, n)
	pick := make([]uint32, n)
	draw := NewSampleDraw(seed, round)
	var visits int64
	for v := 0; v < n; v++ {
		pick[v] = NotSampled
		nbrs, _ := order(g, graph.VertexID(v))
		if len(nbrs) == 0 {
			continue
		}
		// r_v is a uniform draw in (0, W_v], with W_v accumulated in visit
		// order: the prefix walk below follows the same left-to-right
		// addition chain, so floating-point non-associativity cannot push
		// r_v past the final prefix sum — the walk is guaranteed to cross.
		// The distributed engine computes the same W_v through a
		// dependency-lane pass over the same ring order.
		total := 0.0
		for _, u := range nbrs {
			total += wt[u]
		}
		r := draw.Threshold(graph.VertexID(v), total)
		acc := 0.0
		for _, u := range nbrs {
			visits++
			acc += wt[u]
			if acc >= r {
				pick[v] = uint32(u)
				break // the loop-carried dependency
			}
		}
		if pick[v] == NotSampled {
			// Floating-point shortfall at the tail: take the last.
			pick[v] = uint32(nbrs[len(nbrs)-1])
		}
	}
	return pick, visits
}

// SampleDraw is round's r_v draw, keyed once on (seed, round) so each
// vertex's threshold costs one hash step. The oracle and the engine both
// draw through it.
type SampleDraw xrand.Prefix

// NewSampleDraw returns the draw of round under seed.
func NewSampleDraw(seed uint64, round int) SampleDraw {
	return SampleDraw(xrand.Key(seed, 0x5a, uint64(round)))
}

// Threshold returns r_v, the deterministic uniform draw in (0, total],
// given v's total in-neighbor weight. The unit draw is kept in (0, 1] so
// a zero cannot select "before" the first neighbor.
func (d SampleDraw) Threshold(v graph.VertexID, total float64) float64 {
	return (1 - xrand.Prefix(d).Uniform01(uint64(v))) * total
}

// ValidateSample checks that every vertex with incoming edges picked one
// of its in-neighbors and isolated-in vertices picked nothing. Returns ""
// if valid.
func ValidateSample(g *graph.Graph, pick []uint32) string {
	for v := 0; v < g.NumVertices(); v++ {
		in := g.InNeighbors(graph.VertexID(v))
		if len(in) == 0 {
			if pick[v] != NotSampled {
				return "pick for vertex without in-edges"
			}
			continue
		}
		if pick[v] == NotSampled {
			return "no pick for vertex with in-edges"
		}
		found := false
		for _, u := range in {
			if uint32(u) == pick[v] {
				found = true
				break
			}
		}
		if !found {
			return "picked non-neighbor"
		}
	}
	return ""
}
