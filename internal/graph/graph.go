// Package graph provides the in-memory graph substrate for SympleGraph-Go:
// a compressed sparse row/column representation, builders, generators
// (including the Graph500 R-MAT generator used by the paper's synthesized
// datasets), transforms, and edge-list I/O.
//
// Graphs are directed. Algorithms that operate on undirected graphs
// (MIS, K-core, K-means) run on symmetrized graphs, matching the paper's
// methodology ("we consider every directed edge as its undirected
// counterpart" / "convert the undirected datasets to directed graphs by
// adding reverse edges").
package graph

import (
	"fmt"
	"sync"
)

// VertexID identifies a vertex. The paper's datasets reach ~1B vertices;
// at this repository's simulated scale uint32 is ample and halves the
// memory traffic of edge arrays.
type VertexID uint32

// Edge is a directed edge with an optional weight. Weight is meaningful
// only for weighted graphs (SSSP and weighted sampling); unweighted
// builders leave it at 1.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an immutable directed graph in dual CSR form: OutOffsets/
// OutTargets index edges by source (push/top-down traversal) and
// InOffsets/InSources index the same edges by destination (pull/bottom-up
// traversal, the mode SympleGraph optimizes).
//
// Within a vertex's adjacency segment, neighbors are sorted by ID. Weights
// are stored only when the graph is weighted; Weighted() reports this.
type Graph struct {
	n int
	// parallel records, at construction, that some arc appears more than
	// once (only an edge list built without Dedupe can do that).
	parallel bool

	outOffsets []int64
	outTargets []VertexID
	outWeights []float32 // nil if unweighted

	inOffsets []int64
	inSources []VertexID
	inWeights []float32 // nil if unweighted or derived on first read (lazyIn)
	// lazyIn, set by WithWeights, scatters the in-side weights when a
	// reader first asks for them: a push-only run never does.
	lazyIn *inSide

	maxWeight float32 // largest out-side weight (0 if none is positive), set by cacheMaxWeight
}

// inSide is a weight array derived on its first read.
type inSide struct {
	once sync.Once
	w    []float32
}

// inW returns the in-side weights (nil when unweighted), scattering a
// WithWeights graph's on their first read.
func (g *Graph) inW() []float32 {
	if l := g.lazyIn; l != nil {
		l.once.Do(func() { l.w = g.scatterIn() })
		return l.w
	}
	return g.inWeights
}

// scatterIn derives the in-side weights from the out-side ones. Visiting
// arcs source-major reaches each destination's in-arcs in ascending
// source order, which is the order inSources stores them.
func (g *Graph) scatterIn() []float32 {
	in := make([]float32, len(g.inSources))
	cursor := make([]int64, g.n)
	copy(cursor, g.inOffsets[:g.n])
	for i, dst := range g.outTargets {
		in[cursor[dst]] = g.outWeights[i]
		cursor[dst]++
	}
	return in
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (directed edge count).
func (g *Graph) NumEdges() int64 { return int64(len(g.outTargets)) }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.outWeights != nil }

// MaxWeight returns the largest edge weight, 1 on an unweighted graph
// and 0 on a weighted one with no positive weight. It is found once, when
// the graph is built, so a per-query rule that scales with it (SSSP's
// bucket width) costs nothing per query.
func (g *Graph) MaxWeight() float32 {
	if g.outWeights == nil {
		return 1
	}
	return g.maxWeight
}

// cacheMaxWeight records the largest weight for MaxWeight and returns g;
// every constructor that fills weights ends with it.
func (g *Graph) cacheMaxWeight() *Graph {
	g.maxWeight = 0
	for _, w := range g.outWeights {
		if w > g.maxWeight {
			g.maxWeight = w
		}
	}
	return g
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outOffsets[v+1] - g.outOffsets[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// OutNeighbors returns the targets of v's outgoing edges, sorted by ID.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outTargets[g.outOffsets[v]:g.outOffsets[v+1]]
}

// InNeighbors returns the sources of v's incoming edges, sorted by ID.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inSources[g.inOffsets[v]:g.inOffsets[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v), or nil for
// unweighted graphs.
func (g *Graph) OutWeights(v VertexID) []float32 {
	if g.outWeights == nil {
		return nil
	}
	return g.outWeights[g.outOffsets[v]:g.outOffsets[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v), or nil for
// unweighted graphs.
func (g *Graph) InWeights(v VertexID) []float32 {
	in := g.inW()
	if in == nil {
		return nil
	}
	return in[g.inOffsets[v]:g.inOffsets[v+1]]
}

// InCSC returns the in-side arrays whole: the sources of every arc in
// destination-major order (sources ascending within a destination), the
// weights parallel to them (nil for unweighted graphs), and the n+1
// offsets that delimit each destination's row. Index-only views
// (partition.Block) keep positions into these arrays instead of copying
// arcs. The slices alias internal storage and must not be modified.
func (g *Graph) InCSC() (offsets []int64, sources []VertexID, weights []float32) {
	return g.inOffsets, g.inSources, g.inW()
}

// InTopology is InCSC without the weights, for readers that only index
// arcs: it does not make a WithWeights graph scatter its in-side.
func (g *Graph) InTopology() (offsets []int64, sources []VertexID) {
	return g.inOffsets, g.inSources
}

// Edges materializes all edges in source-major order. Intended for tests
// and I/O, not hot paths.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, len(g.outTargets))
	for v := 0; v < g.n; v++ {
		ws := g.OutWeights(VertexID(v))
		for i, u := range g.OutNeighbors(VertexID(v)) {
			w := float32(1)
			if ws != nil {
				w = ws[i]
			}
			edges = append(edges, Edge{Src: VertexID(v), Dst: u, Weight: w})
		}
	}
	return edges
}

// Simple reports whether no arc appears twice, i.e. every adjacency row
// is strictly sorted. Graphs from the generators and from builders run
// with Dedupe are simple; files may hold parallel arcs.
func (g *Graph) Simple() bool { return !g.parallel }

// HasEdge reports whether the directed edge (src, dst) exists, by binary
// search over src's sorted adjacency.
func (g *Graph) HasEdge(src, dst VertexID) bool {
	_, ok := g.findEdge(src, dst)
	return ok
}

// EdgeWeight returns the weight of the directed edge (src, dst) and
// whether the edge exists; the weight is 1 on an unweighted graph.
func (g *Graph) EdgeWeight(src, dst VertexID) (float32, bool) {
	i, ok := g.findEdge(src, dst)
	if !ok {
		return 0, false
	}
	if g.outWeights == nil {
		return 1, true
	}
	return g.outWeights[i], true
}

// findEdge returns the index of (src, dst) in the out arrays.
func (g *Graph) findEdge(src, dst VertexID) (int64, bool) {
	lo, hi := g.outOffsets[src], g.outOffsets[src+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.outTargets[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < g.outOffsets[src+1] && g.outTargets[lo] == dst
}

// MaxDegree returns the maximum total (in+out) degree over all vertices,
// or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		d := g.OutDegree(VertexID(v)) + g.InDegree(VertexID(v))
		if d > max {
			max = d
		}
	}
	return max
}

// HighDegreeFraction returns |V'|/|V|: the fraction of vertices whose
// in-degree is at least threshold. Table 1 of the paper reports this per
// dataset; it predicts how much traffic differentiated dependency
// propagation covers.
func (g *Graph) HighDegreeFraction(threshold int) float64 {
	if g.n == 0 {
		return 0
	}
	c := 0
	for v := 0; v < g.n; v++ {
		if g.InDegree(VertexID(v)) >= threshold {
			c++
		}
	}
	return float64(c) / float64(g.n)
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	w := ""
	if g.Weighted() {
		w = ", weighted"
	}
	return fmt.Sprintf("graph{|V|=%d |E|=%d%s}", g.n, g.NumEdges(), w)
}

// Validate checks structural invariants: offset monotonicity, neighbor
// sorting, ID ranges, and in/out edge-count agreement. It is used by tests
// and by loaders on untrusted input.
func (g *Graph) Validate() error {
	if len(g.outOffsets) != g.n+1 || len(g.inOffsets) != g.n+1 {
		return fmt.Errorf("graph: offset array sized %d/%d, want %d", len(g.outOffsets), len(g.inOffsets), g.n+1)
	}
	if g.outOffsets[g.n] != int64(len(g.outTargets)) {
		return fmt.Errorf("graph: out offsets end at %d, have %d targets", g.outOffsets[g.n], len(g.outTargets))
	}
	if g.inOffsets[g.n] != int64(len(g.inSources)) {
		return fmt.Errorf("graph: in offsets end at %d, have %d sources", g.inOffsets[g.n], len(g.inSources))
	}
	if len(g.outTargets) != len(g.inSources) {
		return fmt.Errorf("graph: %d out edges but %d in edges", len(g.outTargets), len(g.inSources))
	}
	if (g.outWeights == nil) != (g.inW() == nil) {
		return fmt.Errorf("graph: weight arrays present on one side only")
	}
	for v := 0; v < g.n; v++ {
		if g.outOffsets[v] > g.outOffsets[v+1] || g.inOffsets[v] > g.inOffsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		for i, u := range g.OutNeighbors(VertexID(v)) {
			if int(u) >= g.n {
				return fmt.Errorf("graph: edge (%d,%d) target out of range", v, u)
			}
			if i > 0 && g.OutNeighbors(VertexID(v))[i-1] > u {
				return fmt.Errorf("graph: out neighbors of %d not sorted", v)
			}
		}
		for i, u := range g.InNeighbors(VertexID(v)) {
			if int(u) >= g.n {
				return fmt.Errorf("graph: in edge (%d,%d) source out of range", u, v)
			}
			if i > 0 && g.InNeighbors(VertexID(v))[i-1] > u {
				return fmt.Errorf("graph: in neighbors of %d not sorted", v)
			}
		}
	}
	return nil
}
