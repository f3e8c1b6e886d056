package graph

// Symmetrize returns a graph with every edge of g present in both
// directions (deduplicated, self loops dropped). This is how the paper
// runs undirected algorithms — MIS, K-core, K-means — on directed
// datasets.
//
// Row v of the result is the merge of v's out-row and in-row, both
// already sorted, so nothing is sorted here. On a weighted graph an arc
// that g has keeps its own weight (its first copy's, if g repeats it)
// and an arc added as a reverse takes the weight of the arc it
// reverses. A symmetric graph's in-CSC equals its out-CSR, so the
// result's in-side offsets and sources are its out-side arrays; only
// the weights, which the rule above leaves direction-dependent, are
// stored per side.
func Symmetrize(g *Graph) *Graph {
	s := &Graph{n: g.n, outOffsets: make([]int64, g.n+1)}
	for v := 0; v < g.n; v++ { // counting pass: s has no arrays to fill yet
		s.outOffsets[v+1] = s.outOffsets[v] + mergeRows(g, VertexID(v), s, 0)
	}
	s.outTargets = make([]VertexID, s.outOffsets[g.n])
	if g.Weighted() {
		s.outWeights = make([]float32, len(s.outTargets))
		s.inWeights = make([]float32, len(s.outTargets))
	}
	for v := 0; v < g.n; v++ {
		mergeRows(g, VertexID(v), s, s.outOffsets[v])
	}
	s.inOffsets, s.inSources = s.outOffsets, s.outTargets
	return s.cacheMaxWeight()
}

// mergeRows merges v's out-row and in-row in g, skipping v itself and
// repeated neighbors, and returns how many neighbors that leaves. Once s
// has its arrays they are written from position at on: the neighbors
// and, on a weighted graph, per neighbor u the weight of v→u on the out
// side (g's own if it has the arc, else that of u→v) and of u→v on the
// in side (likewise).
func mergeRows(g *Graph, v VertexID, s *Graph, at int64) int64 {
	out, in := g.OutNeighbors(v), g.InNeighbors(v)
	ow, iw := g.OutWeights(v), g.InWeights(v)
	nbrs, outW, inW := s.outTargets, s.outWeights, s.inWeights
	var n int64
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		// The smaller head is next; a neighbor on both sides heads both.
		hasOut := i < len(out) && (j == len(in) || out[i] <= in[j])
		hasIn := j < len(in) && (i == len(out) || in[j] <= out[i])
		oi, ij := i, j // u's first copy on each side it is on
		var u VertexID
		if hasOut {
			u = out[i]
		} else {
			u = in[j]
		}
		for i < len(out) && out[i] == u {
			i++
		}
		for j < len(in) && in[j] == u {
			j++
		}
		if u == v {
			continue
		}
		if nbrs != nil {
			nbrs[at+n] = u
		}
		if outW != nil {
			switch {
			case !hasIn:
				outW[at+n], inW[at+n] = ow[oi], ow[oi]
			case !hasOut:
				outW[at+n], inW[at+n] = iw[ij], iw[ij]
			default:
				outW[at+n], inW[at+n] = ow[oi], iw[ij]
			}
		}
		n++
	}
	return n
}

// IsSymmetric reports whether every edge has its reverse edge.
func IsSymmetric(g *Graph) bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(VertexID(v)) {
			if !g.HasEdge(u, VertexID(v)) {
				return false
			}
		}
	}
	return true
}

// LargestOutDegreeVertex returns the vertex with the highest out-degree,
// a convenient deterministic BFS root for skewed graphs, and its degree.
// Returns (0, 0) for an empty graph.
func LargestOutDegreeVertex(g *Graph) (VertexID, int) {
	var best VertexID
	bestDeg := -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > bestDeg {
			best, bestDeg = VertexID(v), d
		}
	}
	if bestDeg < 0 {
		return 0, 0
	}
	return best, bestDeg
}

// NonIsolatedVertices returns all vertices with at least one outgoing
// edge, used to draw valid BFS roots the way the paper samples "64
// randomly generated non-isolated roots".
func NonIsolatedVertices(g *Graph) []VertexID {
	var vs []VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(VertexID(v)) > 0 {
			vs = append(vs, VertexID(v))
		}
	}
	return vs
}
