package graph

import (
	"math/rand"
	"testing"
)

// symmetrizeReference is the edge-list build Symmetrize replaced: list
// every arc and its reverse, then sort and dedupe. Its dedupe keeps the
// copy listed first, and for an arc (u,v) with u > v whose reverse g
// also has, that is the reverse of (v,u), not g's own (u,v): its
// weights break Symmetrize's rule, so it is the oracle for unweighted
// graphs only.
func symmetrizeReference(g *Graph) *Graph {
	edges := g.Edges()
	both := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		both = append(both, e, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return MustFromEdges(g.NumVertices(), both, BuildOptions{
		Dedupe:        true,
		DropSelfLoops: true,
		Weighted:      g.Weighted(),
	})
}

// symmetrizeByRule builds the weighted result from its stated rule: an
// arc g has keeps its first copy's weight; an arc added as a reverse
// takes the first copy's weight of the arc it reverses.
func symmetrizeByRule(g *Graph) *Graph {
	type arc struct{ s, d VertexID }
	own := map[arc]float32{}
	var order []arc
	for _, e := range g.Edges() { // source-major, parallel copies in row order
		if _, dup := own[arc{e.Src, e.Dst}]; !dup && e.Src != e.Dst {
			own[arc{e.Src, e.Dst}] = e.Weight
			order = append(order, arc{e.Src, e.Dst})
		}
	}
	var edges []Edge
	for _, a := range order {
		edges = append(edges, Edge{Src: a.s, Dst: a.d, Weight: own[a]})
		if _, has := own[arc{a.d, a.s}]; !has {
			edges = append(edges, Edge{Src: a.d, Dst: a.s, Weight: own[a]})
		}
	}
	return MustFromEdges(g.NumVertices(), edges, BuildOptions{Weighted: true})
}

// randomMultigraph draws m arcs with replacement — parallel arcs and
// self loops included — each with its own weight.
func randomMultigraph(n, m int, seed int64, weighted bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: rng.Float32()}
	}
	return MustFromEdges(n, edges, BuildOptions{Weighted: weighted})
}

func TestSymmetrizeMatchesReference(t *testing.T) {
	graphs := map[string]*Graph{
		"rmat":       RMAT(10, 8, Graph500Params(), 3),
		"uniform":    Uniform(300, 3000, 4),
		"star":       Star(50),
		"path":       Path(40),
		"ring":       Ring(33),
		"complete":   Complete(9),
		"empty":      MustFromEdges(0, nil, BuildOptions{}),
		"isolated":   MustFromEdges(7, nil, BuildOptions{}),
		"self-loops": MustFromEdges(3, []Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}}, BuildOptions{}),
		"parallel":   randomMultigraph(40, 1500, 5, false),
	}
	if graphs["parallel"].Simple() {
		t.Fatal("multigraph drew no parallel arc")
	}
	for name, g := range graphs {
		got := Symmetrize(g)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Simple() || !IsSymmetric(got) {
			t.Fatalf("%s: result not a simple symmetric graph", name)
		}
		if want := symmetrizeReference(g); !sameArrays(got, want) {
			t.Fatalf("%s: differs from the edge-list build\n got  %v %v | %v %v\n want %v %v | %v %v", name,
				got.outOffsets, got.outTargets, got.inOffsets, got.inSources,
				want.outOffsets, want.outTargets, want.inOffsets, want.inSources)
		}
		if again := Symmetrize(got); !sameArrays(again, got) {
			t.Fatalf("%s: symmetrizing a symmetric graph changed it", name)
		}
	}
}

func TestSymmetrizeWeightRule(t *testing.T) {
	// 0→1 and 1→0 both exist with different weights: each keeps its own.
	// 1→2 exists alone: 2→1 takes its weight. 2→2 is dropped. 3→0 is
	// repeated: its first copy's weight, 2, is the one that counts.
	g := MustFromEdges(4, []Edge{
		{Src: 0, Dst: 1, Weight: 0.25},
		{Src: 1, Dst: 0, Weight: 0.5},
		{Src: 1, Dst: 2, Weight: 0.75},
		{Src: 2, Dst: 2, Weight: 9},
		{Src: 3, Dst: 0, Weight: 2},
		{Src: 3, Dst: 0, Weight: 3},
	}, BuildOptions{Weighted: true})
	s := Symmetrize(g)
	for _, c := range []struct {
		src, dst VertexID
		w        float32
	}{
		{0, 1, 0.25}, {1, 0, 0.5}, {1, 2, 0.75}, {2, 1, 0.75}, {3, 0, 2}, {0, 3, 2},
	} {
		if w, ok := s.EdgeWeight(c.src, c.dst); !ok || w != c.w {
			t.Fatalf("arc (%d,%d): weight %v (present=%v), want %v", c.src, c.dst, w, ok, c.w)
		}
	}
	if s.NumEdges() != 6 {
		t.Fatalf("%d arcs, want 6", s.NumEdges())
	}

	for seed := int64(1); seed <= 5; seed++ {
		for _, g := range []*Graph{
			RandomWeights(Uniform(200, 3000, seed), seed),
			randomMultigraph(50, 2000, seed, true),
		} {
			got := Symmetrize(g)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if want := symmetrizeByRule(g); !sameArrays(got, want) {
				t.Fatalf("seed %d: weighted result differs from the rule's", seed)
			}
			// The in side must carry the same weights the out side does.
			for v := 0; v < got.NumVertices(); v++ {
				ws := got.InWeights(VertexID(v))
				for i, u := range got.InNeighbors(VertexID(v)) {
					if w, _ := got.EdgeWeight(u, VertexID(v)); w != ws[i] {
						t.Fatalf("seed %d: in-weight of (%d,%d) is %v, out side says %v", seed, u, v, ws[i], w)
					}
				}
			}
		}
	}
}

func BenchmarkSymmetrize(b *testing.B) {
	base := RMAT(13, 16, Graph500Params(), 1)
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"unweighted", base}, {"weighted", RandomWeights(base, 7)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = Symmetrize(c.g)
			}
		})
	}
}

var benchGraph *Graph
