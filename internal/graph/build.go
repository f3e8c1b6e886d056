package graph

import (
	"fmt"
	"sort"
)

// DefaultMaxVertices bounds vertex counts accepted from untrusted input:
// loaders infer |V| from the largest vertex ID, so a single corrupt edge
// naming vertex 2^32−1 would otherwise allocate tens of gigabytes.
const DefaultMaxVertices = 1 << 28

// BuildOptions control how FromEdges constructs a Graph.
type BuildOptions struct {
	// Dedupe removes duplicate (src, dst) pairs, keeping the first
	// occurrence's weight.
	Dedupe bool
	// DropSelfLoops removes edges with Src == Dst.
	DropSelfLoops bool
	// Weighted stores edge weights. When false, weights are discarded.
	Weighted bool
	// MaxVertices rejects graphs larger than this. 0 selects
	// DefaultMaxVertices; negative disables the bound.
	MaxVertices int
}

// FromEdges builds a Graph over n vertices from an edge list. The input
// slice is not modified. It returns an error if any endpoint is out of
// range or n is negative.
func FromEdges(n int, edges []Edge, opts BuildOptions) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	limit := opts.MaxVertices
	if limit == 0 {
		limit = DefaultMaxVertices
	}
	if limit > 0 && n > limit {
		return nil, fmt.Errorf("graph: %d vertices exceeds limit %d (raise BuildOptions.MaxVertices)", n, limit)
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n)
		}
	}

	work := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if opts.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		work = append(work, e)
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].Src != work[j].Src {
			return work[i].Src < work[j].Src
		}
		return work[i].Dst < work[j].Dst
	})
	if opts.Dedupe {
		out := work[:0]
		for i, e := range work {
			if i > 0 && e.Src == work[i-1].Src && e.Dst == work[i-1].Dst {
				continue
			}
			out = append(out, e)
		}
		work = out
	}

	g := &Graph{n: n}
	g.outOffsets = make([]int64, n+1)
	for _, e := range work {
		g.outOffsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		g.outOffsets[v+1] += g.outOffsets[v]
	}
	g.outTargets = make([]VertexID, len(work))
	if opts.Weighted {
		g.outWeights = make([]float32, len(work))
	}
	for i, e := range work { // work is sorted by (src, dst) so this fills in order
		g.outTargets[i] = e.Dst
		if opts.Weighted {
			g.outWeights[i] = e.Weight
		}
		if i > 0 && work[i-1].Src == e.Src && work[i-1].Dst == e.Dst {
			g.parallel = true
		}
	}

	// CSC: count in-degrees, then place each edge at its destination
	// bucket. Scanning work in (src, dst) order makes each destination's
	// source list sorted automatically.
	g.inOffsets = make([]int64, n+1)
	for _, e := range work {
		g.inOffsets[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.inOffsets[v+1] += g.inOffsets[v]
	}
	g.inSources = make([]VertexID, len(work))
	if opts.Weighted {
		g.inWeights = make([]float32, len(work))
	}
	cursor := make([]int64, n)
	copy(cursor, g.inOffsets[:n])
	for _, e := range work {
		at := cursor[e.Dst]
		cursor[e.Dst]++
		g.inSources[at] = e.Src
		if opts.Weighted {
			g.inWeights[at] = e.Weight
		}
	}
	return g.cacheMaxWeight(), nil
}

// MustFromEdges is FromEdges that panics on error, for tests and
// generators whose inputs are constructed to be valid.
func MustFromEdges(n int, edges []Edge, opts BuildOptions) *Graph {
	g, err := FromEdges(n, edges, opts)
	if err != nil {
		panic(err)
	}
	return g
}
