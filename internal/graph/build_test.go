package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// edgesDigest is an FNV-1a hash of g's arcs in Edges() order, weights
// included.
func edgesDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var rec [12]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.Dst))
		binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(e.Weight))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// TestGeneratorsPinned holds the generators to the graphs they have
// always drawn: a faster draw or build that changes a seed's stream, or
// which copy of an arc survives, changes a digest.
func TestGeneratorsPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      *Graph
		edges  int64
		digest uint64
	}{
		{"rmat(12,16,seed 7)", RMAT(12, 16, Graph500Params(), 7), 53402, 0x18b1e119f3bbcc50},
		{"rmat(10,8,seed 42)", RMAT(10, 8, Graph500Params(), 42), 6671, 0x27dff294a5792b70},
		{"uniform(4096,65536,seed 1007)", Uniform(4096, 65536, 1007), 65386, 0x752596ff1474f4e9},
	} {
		if got, d := c.g.NumEdges(), edgesDigest(c.g); got != c.edges || d != c.digest {
			t.Errorf("%s: %d arcs, digest %#x; want %d, %#x", c.name, got, d, c.edges, c.digest)
		}
	}
}

// referenceBuild is FromEdges by its contract, from a comparison sort:
// drop self loops, order by (src, dst) keeping input order among equal
// pairs, keep each arc's first copy, and lay the CSC out by (dst, src)
// the same way.
func referenceBuild(n int, edges []Edge, opts BuildOptions) *Graph {
	var out []Edge
	for _, e := range edges {
		if !opts.DropSelfLoops || e.Src != e.Dst {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Src < out[j].Src || out[i].Src == out[j].Src && out[i].Dst < out[j].Dst
	})
	same := func(a, b Edge) bool { return a.Src == b.Src && a.Dst == b.Dst }
	if opts.Dedupe {
		out = slices.CompactFunc(out, same)
	}
	in := slices.Clone(out)
	sort.SliceStable(in, func(i, j int) bool {
		return in[i].Dst < in[j].Dst || in[i].Dst == in[j].Dst && in[i].Src < in[j].Src
	})
	g := &Graph{n: n, outOffsets: make([]int64, n+1), inOffsets: make([]int64, n+1)}
	if opts.Weighted {
		g.outWeights, g.inWeights = []float32{}, []float32{}
	}
	for i, e := range out {
		g.outOffsets[e.Src+1]++
		g.outTargets = append(g.outTargets, e.Dst)
		g.inOffsets[e.Dst+1]++
		g.inSources = append(g.inSources, in[i].Src)
		if opts.Weighted {
			g.outWeights = append(g.outWeights, e.Weight)
			g.inWeights = append(g.inWeights, in[i].Weight)
		}
		g.parallel = g.parallel || i > 0 && same(out[i-1], e)
	}
	for v := 0; v < n; v++ {
		g.outOffsets[v+1] += g.outOffsets[v]
		g.inOffsets[v+1] += g.inOffsets[v]
	}
	return g.cacheMaxWeight()
}

// TestFromEdgesMatchesStableReference: on random multigraphs — parallel
// arcs and self loops, each copy with its own weight — FromEdges builds
// the reference's arrays under every option combination.
func TestFromEdgesMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := []int{0, 1, 2, 7, 64, 300}[trial%6]
		var edges []Edge
		if n > 0 {
			edges = make([]Edge, rng.Intn(4*n+40))
			for i := range edges {
				edges[i] = Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: rng.Float32()}
			}
		}
		input := slices.Clone(edges)
		for mask := 0; mask < 8; mask++ {
			opts := BuildOptions{Dedupe: mask&1 != 0, DropSelfLoops: mask&2 != 0, Weighted: mask&4 != 0}
			got := MustFromEdges(n, edges, opts)
			want := referenceBuild(n, edges, opts)
			if !sameArrays(got, want) || got.parallel != want.parallel || got.maxWeight != want.maxWeight {
				t.Fatalf("n=%d, %d edges, %+v: FromEdges differs from the stable reference\n got  %v %v %v\n want %v %v %v",
					n, len(edges), opts, got.outTargets, got.outWeights, got.inSources, want.outTargets, want.outWeights, want.inSources)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(edges, input) {
			t.Fatal("FromEdges modified its input")
		}
	}
}

// TestDedupeKeepsFirstWeight: Dedupe keeps each arc's first copy's
// weight however many edges there are — a comparison sort that is not
// stable loses that once the input outgrows its insertion-sort cutoff.
func TestDedupeKeepsFirstWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type arc struct{ s, d VertexID }
	first := map[arc]float32{}
	edges := make([]Edge, 200)
	for i := range edges {
		e := Edge{Src: VertexID(rng.Intn(6)), Dst: VertexID(rng.Intn(6)), Weight: float32(i + 1)}
		if _, ok := first[arc{e.Src, e.Dst}]; !ok {
			first[arc{e.Src, e.Dst}] = e.Weight
		}
		edges[i] = e
	}
	g := MustFromEdges(6, edges, BuildOptions{Dedupe: true, Weighted: true})
	if g.NumEdges() != int64(len(first)) {
		t.Fatalf("%d arcs, want %d", g.NumEdges(), len(first))
	}
	wrong := 0
	for _, e := range g.Edges() {
		if e.Weight != first[arc{e.Src, e.Dst}] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d arcs hold a later copy's weight", wrong, len(first))
	}
}

func BenchmarkFromEdges(b *testing.B) {
	edges := RMAT(16, 16, Graph500Params(), 1).Edges()
	rand.New(rand.NewSource(2)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = MustFromEdges(1<<16, edges, BuildOptions{Dedupe: true, DropSelfLoops: true})
	}
}

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph = RMAT(16, 16, Graph500Params(), int64(i))
	}
}
