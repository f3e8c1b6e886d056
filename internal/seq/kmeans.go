package seq

import (
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// NoCluster marks unassigned vertices in K-means assignments.
const NoCluster = ^uint32(0)

// KMeansResult holds graph K-means output: per-vertex cluster IDs,
// per-vertex hop distance to the adopted center, the final centers, and
// the per-outer-iteration total distance (the paper's step 3 metric).
type KMeansResult struct {
	Cluster  []uint32
	Dist     []int32
	Centers  []graph.VertexID
	DistSums []int64
	Rounds   int // total assignment (inner BFS) rounds across iterations
}

// KMeans runs the paper's graph-based K-means (Figure 3c, §2.1) for
// `iters` outer iterations with `centers` clusters: (1) pick centers,
// (2) assign every vertex to a cluster by BFS-like adoption — a vertex
// adopts the cluster of its first assigned neighbor, the loop-carried
// dependency — (3) sum distances, (4) re-center and repeat. Re-centering
// picks a deterministic pseudo-random member of each cluster. The order
// of neighbor visits decides ties, so distributed equivalence requires
// the matching NeighborOrder. The graph must be symmetric.
func KMeans(g *graph.Graph, centers, iters int, seed uint64, order NeighborOrder) *KMeansResult {
	if order == nil {
		order = AscendingOrder
	}
	n := g.NumVertices()
	res := &KMeansResult{
		Cluster: make([]uint32, n),
		Dist:    make([]int32, n),
	}
	cs := KMeansCenters(n, centers, seed)

	for iter := 0; iter < iters; iter++ {
		for v := range res.Cluster {
			res.Cluster[v] = NoCluster
			res.Dist[v] = -1
		}
		for cid, c := range cs {
			res.Cluster[c] = uint32(cid)
			res.Dist[c] = 0
		}
		// Assignment rounds: simultaneous adoption against the previous
		// round's assignment, mirroring the distributed iteration.
		for round := int32(1); ; round++ {
			res.Rounds++
			type adoption struct {
				v   graph.VertexID
				cid uint32
			}
			var adopted []adoption
			for v := 0; v < n; v++ {
				if res.Cluster[v] != NoCluster {
					continue
				}
				nbrs, _ := order(g, graph.VertexID(v))
				for _, u := range nbrs {
					if res.Cluster[u] != NoCluster && res.Dist[u] < round {
						adopted = append(adopted, adoption{graph.VertexID(v), res.Cluster[u]})
						break // the loop-carried dependency
					}
				}
			}
			if len(adopted) == 0 {
				break
			}
			for _, a := range adopted {
				res.Cluster[a.v] = a.cid
				res.Dist[a.v] = round
			}
		}
		var sum int64
		for v := 0; v < n; v++ {
			if res.Dist[v] > 0 {
				sum += int64(res.Dist[v])
			}
		}
		res.DistSums = append(res.DistSums, sum)
		if iter == iters-1 {
			break
		}
		cs = Recenter(res.Cluster, len(cs), seed, iter, cs)
	}
	res.Centers = cs
	return res
}

// KMeansCenters returns the initial centers: the first `centers` entries
// of a deterministic permutation of the n vertices, the same on every
// machine and in the oracle.
func KMeansCenters(n, centers int, seed uint64) []graph.VertexID {
	perm := xrand.Perm(n, xrand.Mix(seed, 0x4b3))
	cs := make([]graph.VertexID, min(centers, n))
	for i := range cs {
		cs[i] = graph.VertexID(perm[i])
	}
	return cs
}

// RecenterKey keys iteration iter's per-member hash, which Recenter and
// the engine's distributed re-centring both minimise.
func RecenterKey(seed uint64, iter int) xrand.Prefix {
	return xrand.Key(seed, 0x7e, uint64(iter))
}

// Recenter picks each cluster's next center: the member minimizing a
// deterministic per-iteration hash — a seeded stand-in for "pick a random
// member", computable identically by every machine. Empty clusters keep
// their previous center.
func Recenter(cluster []uint32, k int, seed uint64, iter int, prev []graph.VertexID) []graph.VertexID {
	best := make([]graph.VertexID, k)
	bestKey := make([]float64, k)
	for cid := range best {
		best[cid] = prev[cid]
		bestKey[cid] = math.Inf(1)
	}
	draw := RecenterKey(seed, iter)
	for v, cid := range cluster {
		if cid == NoCluster {
			continue
		}
		key := draw.Uniform01(uint64(v))
		if key < bestKey[cid] {
			bestKey[cid] = key
			best[cid] = graph.VertexID(v)
		}
	}
	return best
}

// ValidateKMeans checks structural properties independent of tie-breaking:
// every assigned vertex's distance matches the multi-source BFS level from
// the centers, unassigned vertices are unreachable from every center, and
// cluster IDs are consistent with adoption (each vertex at distance d > 0
// has a neighbor in the same cluster at distance d−1). Returns "" if valid.
func ValidateKMeans(g *graph.Graph, r *KMeansResult) string {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	var frontier []graph.VertexID
	for _, c := range r.Centers {
		if level[c] == 0 {
			continue
		}
		level[c] = 0
		frontier = append(frontier, c)
	}
	for d := int32(1); len(frontier) > 0; d++ {
		var next []graph.VertexID
		for _, u := range frontier {
			for _, v := range g.OutNeighbors(u) {
				if level[v] < 0 {
					level[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	for v := 0; v < n; v++ {
		if (r.Cluster[v] == NoCluster) != (level[v] < 0) {
			return "assignment/reachability mismatch"
		}
		if r.Cluster[v] == NoCluster {
			continue
		}
		if r.Dist[v] != level[v] {
			return "distance is not the BFS level"
		}
		if r.Dist[v] == 0 {
			continue
		}
		ok := false
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			if r.Cluster[u] == r.Cluster[v] && r.Dist[u] == r.Dist[v]-1 {
				ok = true
				break
			}
		}
		if !ok {
			return "no adoption witness neighbor"
		}
	}
	return ""
}
