package graph

import (
	"fmt"
	"slices"
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

// FromEdges builds a Graph over n vertices from an edge list, in time
// linear in n and the edge count. Copies of one arc keep their input
// order. The input slice is not modified. It returns an error if any
// endpoint is out of range or n is negative.
func FromEdges(n int, edges []Edge, opts BuildOptions) (*Graph, error) {
	return fromEdges(n, edges, false, opts)
}

// fromEdges is FromEdges for a caller that may give edges up: when owned
// is set, the build reuses it as scratch.
func fromEdges(n int, edges []Edge, owned bool, opts BuildOptions) (*Graph, error) {
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

	// Two stable counting passes, by destination and then by source, sort
	// the kept edges by (src, dst) and leave equal pairs in input order.
	// The first drops self loops as it goes and the second lands in work,
	// which is edges itself when the caller gave it up.
	pos := make([]int64, n+1)
	keep := func(e Edge) bool { return !opts.DropSelfLoops || e.Src != e.Dst }
	for _, e := range edges {
		if keep(e) {
			pos[e.Dst+1]++
		}
	}
	prefixSum(pos)
	byDst := make([]Edge, pos[n])
	for _, e := range edges {
		if keep(e) {
			byDst[pos[e.Dst]] = e
			pos[e.Dst]++
		}
	}
	work := edges[:len(byDst)]
	if !owned {
		work = make([]Edge, len(byDst))
	}
	clear(pos)
	for _, e := range byDst {
		pos[e.Src+1]++
	}
	prefixSum(pos)
	for _, e := range byDst {
		work[pos[e.Src]] = e
		pos[e.Src]++
	}
	if opts.Dedupe {
		work = slices.CompactFunc(work, func(a, b Edge) bool { return a.Src == b.Src && a.Dst == b.Dst })
	}

	g := &Graph{n: n}
	g.outOffsets = pos // the passes are done with it
	clear(g.outOffsets)
	for _, e := range work {
		g.outOffsets[e.Src+1]++
	}
	prefixSum(g.outOffsets)
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
	prefixSum(g.inOffsets)
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

// prefixSum turns per-vertex counts at c[v+1] into offsets: c[v] becomes
// the number of items before v's.
func prefixSum(c []int64) {
	for v := 1; v < len(c); v++ {
		c[v] += c[v-1]
	}
}

// MustFromEdges is FromEdges that panics on error, for tests and
// generators whose inputs are constructed to be valid.
func MustFromEdges(n int, edges []Edge, opts BuildOptions) *Graph {
	return must(FromEdges(n, edges, opts))
}

// must returns g, panicking on err: for inputs built to be valid.
func must(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}
