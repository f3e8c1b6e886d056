package graph

import (
	"math/rand"
)

// RMATParams are the recursive-matrix quadrant probabilities. The zero
// value is not useful; use Graph500Params for the paper's configuration.
type RMATParams struct {
	A, B, C float64 // D is the remainder 1-A-B-C
}

// Graph500Params returns the R-MAT parameters used by the Graph500
// benchmark and by the paper's s27/s28/s29 datasets ("We use the same
// generator parameters as in Graph500"): a=0.57, b=0.19, c=0.19, d=0.05.
func Graph500Params() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19} }

// RMAT generates a scale-free directed graph with 2^scale vertices and
// edgeFactor*2^scale edges using the recursive matrix method of
// Chakrabarti, Zhan and Faloutsos (the paper's synthesized datasets, §7.1).
// Duplicate edges and self loops are removed, so the final edge count is
// slightly below the nominal one, as in Graph500. Generation is
// deterministic for a given seed.
func RMAT(scale int, edgeFactor int, params RMATParams, seed int64) *Graph {
	n := 1 << uint(scale)
	m := int64(edgeFactor) * int64(n)
	rng := rand.NewSource(seed)
	ab, abc := params.A+params.B, params.A+params.B+params.C
	edges := make([]Edge, m)
	for i := range edges {
		// Each level draws a quadrant: below A neither bit, then dst,
		// then src, then both — set from three compares, without branches.
		var src, dst uint32
		for level := 0; level < scale; level++ {
			r := float64In01(rng)
			src |= bit(r >= ab) << level
			dst |= (bit(r >= params.A) ^ bit(r >= ab) ^ bit(r >= abc)) << level
		}
		edges[i] = Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: 1}
	}
	return must(fromEdges(n, edges, true, BuildOptions{Dedupe: true, DropSelfLoops: true}))
}

// float64In01 is math/rand's Float64 read straight from src, the same
// value stream without the Rand wrapper.
func float64In01(src rand.Source) float64 {
	for {
		if f := float64(src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// bit is 1 for true and 0 for false.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Uniform generates an Erdős–Rényi-style directed graph with n vertices
// and approximately m edges drawn uniformly at random (duplicates and self
// loops removed). Low-skew graphs like this reproduce the paper's
// Clueweb-12 BFS case where bottom-up traversal is rarely profitable.
func Uniform(n int, m int64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := int64(0); i < m; i++ {
		edges = append(edges, Edge{
			Src:    VertexID(rng.Intn(n)),
			Dst:    VertexID(rng.Intn(n)),
			Weight: 1,
		})
	}
	return must(fromEdges(n, edges, true, BuildOptions{Dedupe: true, DropSelfLoops: true}))
}

// Ring generates a directed cycle 0→1→…→n-1→0.
func Ring(n int) *Graph {
	edges := make([]Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{Src: VertexID(v), Dst: VertexID((v + 1) % n), Weight: 1})
	}
	return MustFromEdges(n, edges, BuildOptions{Dedupe: true, DropSelfLoops: true})
}

// Path generates a directed path 0→1→…→n-1.
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{Src: VertexID(v), Dst: VertexID(v + 1), Weight: 1})
	}
	return MustFromEdges(n, edges, BuildOptions{})
}

// Star generates a hub-and-spoke graph: edges hub→i and i→hub for every
// other vertex i. Vertex 0 is the hub. Stars stress the high-degree path
// of differentiated dependency propagation.
func Star(n int) *Graph {
	edges := make([]Edge, 0, 2*(n-1))
	for v := 1; v < n; v++ {
		edges = append(edges,
			Edge{Src: 0, Dst: VertexID(v), Weight: 1},
			Edge{Src: VertexID(v), Dst: 0, Weight: 1})
	}
	return MustFromEdges(n, edges, BuildOptions{})
}

// Complete generates the complete directed graph on n vertices (no self
// loops). Quadratic; for small test graphs only.
func Complete(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				edges = append(edges, Edge{Src: VertexID(s), Dst: VertexID(d), Weight: 1})
			}
		}
	}
	return MustFromEdges(n, edges, BuildOptions{})
}

// Grid generates a rows×cols 4-neighbor mesh with edges in both
// directions. Grids have uniform low degree and large diameter — the graph
// class where the paper's linear-time Matula–Beck K-core baseline wins.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges,
					Edge{Src: id(r, c), Dst: id(r, c+1), Weight: 1},
					Edge{Src: id(r, c+1), Dst: id(r, c), Weight: 1})
			}
			if r+1 < rows {
				edges = append(edges,
					Edge{Src: id(r, c), Dst: id(r+1, c), Weight: 1},
					Edge{Src: id(r+1, c), Dst: id(r, c), Weight: 1})
			}
		}
	}
	return MustFromEdges(n, edges, BuildOptions{})
}

// RandomWeights returns g with edge weights drawn uniformly from (0, 1],
// deterministic for a given seed. Weighted graphs drive SSSP and
// weighted neighbor sampling. The result shares g's immutable offset
// and adjacency arrays; only the weight arrays are new.
func RandomWeights(g *Graph, seed int64) *Graph {
	draws := make([]float32, 0, len(g.outTargets))
	return WithWeights(g, DrawWeights(draws, rand.New(rand.NewSource(seed)), len(g.outTargets)))
}

// DrawWeights extends draws to n weights from rng, one per arc in the
// order RandomWeights draws them: RandomWeights(g, seed)'s are the first
// |E| of seed's stream, so graphs of a version chain can share a prefix.
func DrawWeights(draws []float32, rng *rand.Rand, n int) []float32 {
	for len(draws) < n {
		draws = append(draws, float32(1-rng.Float64())) // in (0, 1]
	}
	return draws
}

// WithWeights returns g sharing its arrays and carrying out (|E| weights
// in Edges() order, kept without copying). The in-side weights are
// scattered from them on their first read (InCSC, InWeights): a push
// pass never reads them.
func WithWeights(g *Graph, out []float32) *Graph {
	if out == nil {
		out = []float32{} // an arcless graph is weighted too
	}
	w := *g
	w.outWeights = out[:len(g.outTargets):len(g.outTargets)]
	w.inWeights, w.lazyIn = nil, &inSide{}
	return w.cacheMaxWeight()
}
