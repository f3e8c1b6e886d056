package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, []Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 0, Weight: 1},
	}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.OutDegree(0); d != 1 {
		t.Fatalf("OutDegree(0) = %d", d)
	}
	if d := g.InDegree(0); d != 1 {
		t.Fatalf("InDegree(0) = %d", d)
	}
	if nbrs := g.OutNeighbors(0); len(nbrs) != 1 || nbrs[0] != 1 {
		t.Fatalf("OutNeighbors(0) = %v", nbrs)
	}
	if nbrs := g.InNeighbors(0); len(nbrs) != 1 || nbrs[0] != 2 {
		t.Fatalf("InNeighbors(0) = %v", nbrs)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{Src: 0, Dst: 2}}, BuildOptions{}); err == nil {
		t.Fatal("accepted out-of-range target")
	}
	if _, err := FromEdges(-1, nil, BuildOptions{}); err == nil {
		t.Fatal("accepted negative n")
	}
}

func TestDedupeAndSelfLoops(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 1, Weight: 5},
		{Src: 0, Dst: 1, Weight: 7},
		{Src: 1, Dst: 1, Weight: 1},
		{Src: 1, Dst: 0, Weight: 2},
	}
	g := MustFromEdges(2, edges, BuildOptions{Dedupe: true, DropSelfLoops: true, Weighted: true})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w := g.OutWeights(0)[0]; w != 5 {
		t.Fatalf("dedupe kept weight %g, want first occurrence 5", w)
	}
}

func TestNeighborsSorted(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 3}, {Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 2, Dst: 0}, {Src: 1, Dst: 0}}
	g := MustFromEdges(4, edges, BuildOptions{})
	nbrs := g.OutNeighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] > nbrs[i] {
			t.Fatalf("out neighbors not sorted: %v", nbrs)
		}
	}
	in := g.InNeighbors(0)
	if len(in) != 2 || in[0] != 1 || in[1] != 2 {
		t.Fatalf("in neighbors = %v, want [1 2]", in)
	}
}

func TestHasEdge(t *testing.T) {
	g := triangle(t)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{Src: 0, Dst: 2, Weight: 0.5}, {Src: 1, Dst: 0, Weight: 1.5}}
	g := MustFromEdges(3, orig, BuildOptions{Weighted: true})
	back := g.Edges()
	if len(back) != 2 {
		t.Fatalf("Edges() = %v", back)
	}
	g2 := MustFromEdges(3, back, BuildOptions{Weighted: true})
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed edge count")
	}
	for v := VertexID(0); v < 3; v++ {
		a, b := g.OutWeights(v), g2.OutWeights(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("weights differ at %d", v)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustFromEdges(0, nil, BuildOptions{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() != 0 || g.HighDegreeFraction(1) != 0 {
		t.Fatal("empty graph stats nonzero")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := MustFromEdges(5, []Edge{{Src: 1, Dst: 3}}, BuildOptions{})
	if g.OutDegree(0) != 0 || g.InDegree(4) != 0 {
		t.Fatal("isolated vertex has edges")
	}
	vs := NonIsolatedVertices(g)
	if len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("NonIsolatedVertices = %v", vs)
	}
}

func TestRMATDeterministicAndValid(t *testing.T) {
	g1 := RMAT(10, 8, Graph500Params(), 42)
	g2 := RMAT(10, 8, Graph500Params(), 42)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("RMAT not deterministic")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != 1024 {
		t.Fatalf("|V| = %d", g1.NumVertices())
	}
	if g1.NumEdges() == 0 || g1.NumEdges() > 8*1024 {
		t.Fatalf("|E| = %d out of expected range", g1.NumEdges())
	}
	g3 := RMAT(10, 8, Graph500Params(), 43)
	if g1.NumEdges() == g3.NumEdges() && equalEdges(g1, g3) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func equalEdges(a, b *Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func TestRMATIsSkewed(t *testing.T) {
	g := RMAT(12, 16, Graph500Params(), 7)
	// Scale-free: max degree far above average.
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 8*avg {
		t.Fatalf("R-MAT max degree %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
	if f := g.HighDegreeFraction(32); f <= 0 || f >= 1 {
		t.Fatalf("HighDegreeFraction = %g", f)
	}
}

func TestUniformIsNotSkewed(t *testing.T) {
	n := 1 << 12
	g := Uniform(n, int64(16*n), 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) > 8*avg {
		t.Fatalf("uniform graph unexpectedly skewed: max %d avg %.1f", g.MaxDegree(), avg)
	}
}

func TestStructuredGenerators(t *testing.T) {
	ring := Ring(10)
	if ring.NumEdges() != 10 {
		t.Fatalf("ring edges = %d", ring.NumEdges())
	}
	for v := 0; v < 10; v++ {
		if ring.OutDegree(VertexID(v)) != 1 || ring.InDegree(VertexID(v)) != 1 {
			t.Fatal("ring degree wrong")
		}
	}

	path := Path(5)
	if path.NumEdges() != 4 || path.OutDegree(4) != 0 {
		t.Fatal("path wrong")
	}

	star := Star(6)
	if star.OutDegree(0) != 5 || star.InDegree(0) != 5 {
		t.Fatal("star hub degree wrong")
	}
	if !IsSymmetric(star) {
		t.Fatal("star not symmetric")
	}

	k := Complete(5)
	if k.NumEdges() != 20 {
		t.Fatalf("complete edges = %d", k.NumEdges())
	}

	grid := Grid(3, 4)
	if grid.NumVertices() != 12 || !IsSymmetric(grid) {
		t.Fatal("grid wrong")
	}
	// Corner has degree 2, interior degree <= 4.
	if grid.OutDegree(0) != 2 {
		t.Fatalf("grid corner degree = %d", grid.OutDegree(0))
	}
	for _, g := range []*Graph{ring, path, star, k, grid} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	s := Symmetrize(triangle(t))
	if !IsSymmetric(s) {
		t.Fatal("Symmetrize output not symmetric")
	}
	if s.NumEdges() != 6 {
		t.Fatalf("symmetrized triangle has %d edges", s.NumEdges())
	}
}

func TestRandomWeights(t *testing.T) {
	g := RandomWeights(Ring(16), 3)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	for v := 0; v < 16; v++ {
		for _, w := range g.OutWeights(VertexID(v)) {
			if w <= 0 || w > 1 {
				t.Fatalf("weight %g out of (0,1]", w)
			}
		}
	}
	g2 := RandomWeights(Ring(16), 3)
	for v := VertexID(0); v < 16; v++ {
		if g.OutWeights(v)[0] != g2.OutWeights(v)[0] {
			t.Fatal("RandomWeights not deterministic")
		}
	}
	// Bit-identical to the construction it replaced: weights drawn in
	// Edges() order, the graph rebuilt from the weighted edge list.
	for _, src := range []*Graph{Ring(16), Star(9), RMAT(9, 8, Graph500Params(), 5), MustFromEdges(3, nil, BuildOptions{})} {
		rng := rand.New(rand.NewSource(42))
		edges := src.Edges()
		for i := range edges {
			edges[i].Weight = float32(1 - rng.Float64())
		}
		want := MustFromEdges(src.NumVertices(), edges, BuildOptions{Weighted: true})
		got := RandomWeights(src, 42)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !sameArrays(got, want) {
			t.Fatalf("RandomWeights(%v) differs from the edge-list rebuild", src)
		}
	}
}

func TestLargestOutDegreeVertex(t *testing.T) {
	v, d := LargestOutDegreeVertex(Star(8))
	if v != 0 || d != 7 {
		t.Fatalf("got (%d,%d), want (0,7)", v, d)
	}
	if v, d := LargestOutDegreeVertex(MustFromEdges(0, nil, BuildOptions{})); v != 0 || d != 0 {
		t.Fatal("empty graph case wrong")
	}
}

// Property: for arbitrary edge lists, in-edge view and out-edge view
// describe the same edge multiset, and Validate passes.
func TestQuickDualViewConsistency(t *testing.T) {
	f := func(raw []uint32, seed int64) bool {
		const n = 64
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, 0, len(raw))
		for _, r := range raw {
			edges = append(edges, Edge{
				Src:    VertexID(r % n),
				Dst:    VertexID(uint32(rng.Intn(n))),
				Weight: 1,
			})
		}
		g, err := FromEdges(n, edges, BuildOptions{Dedupe: true})
		if err != nil || g.Validate() != nil {
			return false
		}
		// Every out edge appears as an in edge and vice versa.
		type pair struct{ s, d VertexID }
		outSet := map[pair]int{}
		for v := 0; v < n; v++ {
			for _, u := range g.OutNeighbors(VertexID(v)) {
				outSet[pair{VertexID(v), u}]++
			}
		}
		inCount := 0
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(VertexID(v)) {
				if outSet[pair{u, VertexID(v)}] == 0 {
					return false
				}
				inCount++
			}
		}
		return inCount == len(outSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxWeight: every constructor that fills weights records the
// largest one — a self loop's drops out with the loop under Symmetrize,
// and a patch that lowers the heaviest arc lowers it — and an unweighted
// graph reports 1.
func TestMaxWeight(t *testing.T) {
	edges := []Edge{{0, 1, 0.5}, {1, 2, 2.5}, {2, 2, 9}, {2, 0, 1}}
	g := MustFromEdges(3, edges, BuildOptions{Weighted: true})
	patched, err := Patch(g, 3, nil, []Edge{{2, 2, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	rw := RandomWeights(Path(50), 1)
	var rwMax float32
	for _, e := range rw.Edges() {
		rwMax = max(rwMax, e.Weight)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want float32
	}{
		{"FromEdges", g, 9},
		{"Symmetrize", Symmetrize(g), 2.5},
		{"Patch", patched, 2.5},
		{"RandomWeights", rw, rwMax},
		{"unweighted", MustFromEdges(3, edges, BuildOptions{}), 1},
	} {
		if got := tc.g.MaxWeight(); got != tc.want {
			t.Errorf("%s: MaxWeight %g, want %g", tc.name, got, tc.want)
		}
	}
}
