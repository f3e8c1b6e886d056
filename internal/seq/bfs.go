package seq

import "repro/internal/graph"

// NoParent marks unreached vertices in BFS parent arrays.
const NoParent = ^uint32(0)

// BFSResult holds a BFS tree: Depth[v] is the hop distance from the root
// (-1 if unreached) and Parent[v] the tree parent (NoParent for the root
// and unreached vertices).
type BFSResult struct {
	Depth  []int32
	Parent []uint32
}

// TopDownBFS runs the conventional queue-based BFS over outgoing edges.
func TopDownBFS(g *graph.Graph, root graph.VertexID) *BFSResult {
	n := g.NumVertices()
	r := &BFSResult{Depth: make([]int32, n), Parent: make([]uint32, n)}
	for i := range r.Depth {
		r.Depth[i] = -1
		r.Parent[i] = NoParent
	}
	r.Depth[root] = 0
	queue := []graph.VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if r.Depth[v] < 0 {
				r.Depth[v] = r.Depth[u] + 1
				r.Parent[v] = uint32(u)
				queue = append(queue, v)
			}
		}
	}
	return r
}

// DirectionOptimizingBFS runs Beamer-style adaptive BFS: top-down steps
// switch to bottom-up when the frontier grows past a fraction of the
// graph's edges, and back when it shrinks — the single-thread baseline
// configuration of GAPBS used in the paper's COST comparison. The result
// is identical to TopDownBFS in depths; parents may differ but are valid.
func DirectionOptimizingBFS(g *graph.Graph, root graph.VertexID) *BFSResult {
	n := g.NumVertices()
	r := &BFSResult{Depth: make([]int32, n), Parent: make([]uint32, n)}
	for i := range r.Depth {
		r.Depth[i] = -1
		r.Parent[i] = NoParent
	}
	r.Depth[root] = 0
	frontier := []graph.VertexID{root}
	depth := int32(0)
	for len(frontier) > 0 {
		var frontierOut int64
		for _, u := range frontier {
			frontierOut += int64(g.OutDegree(u))
		}
		depth++
		if useBottomUp(g, frontierOut) {
			inFrontier := make([]bool, n)
			for _, u := range frontier {
				inFrontier[u] = true
			}
			var next []graph.VertexID
			for v := 0; v < n; v++ {
				if r.Depth[v] >= 0 {
					continue
				}
				for _, u := range g.InNeighbors(graph.VertexID(v)) {
					if inFrontier[u] {
						r.Depth[v] = depth
						r.Parent[v] = uint32(u)
						next = append(next, graph.VertexID(v))
						break // the loop-carried dependency
					}
				}
			}
			frontier = next
			continue
		}
		var next []graph.VertexID
		for _, u := range frontier {
			for _, v := range g.OutNeighbors(u) {
				if r.Depth[v] < 0 {
					r.Depth[v] = depth
					r.Parent[v] = uint32(u)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return r
}

// useBottomUp is the direction heuristic: switch to bottom-up when the
// frontier's out-edges exceed |E|/20, the Ligra/Gemini threshold.
func useBottomUp(g *graph.Graph, frontierOut int64) bool {
	return frontierOut > g.NumEdges()/20
}

// ValidateBFS checks that a result is a correct BFS tree for (g, root):
// depths match TopDownBFS and every parent edge exists with depth
// parent+1. It returns a descriptive mismatch or "" when valid.
func ValidateBFS(g *graph.Graph, root graph.VertexID, r *BFSResult) string {
	want := TopDownBFS(g, root)
	for v := 0; v < g.NumVertices(); v++ {
		if r.Depth[v] != want.Depth[v] {
			return "depth mismatch"
		}
		if r.Depth[v] > 0 {
			p := graph.VertexID(r.Parent[v])
			if r.Parent[v] == NoParent || !g.HasEdge(p, graph.VertexID(v)) {
				return "missing or phantom parent edge"
			}
			if r.Depth[p] != r.Depth[v]-1 {
				return "parent not one level up"
			}
		}
		if r.Depth[v] == 0 && graph.VertexID(v) != root {
			return "non-root at depth 0"
		}
	}
	return ""
}
