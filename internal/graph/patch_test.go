package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// sameArrays reports whether two graphs hold identical CSR/CSC arrays,
// treating a nil and an empty slice alike.
func sameArrays(a, b *Graph) bool {
	return a.n == b.n && a.Weighted() == b.Weighted() &&
		slices.Equal(a.outOffsets, b.outOffsets) && slices.Equal(a.outTargets, b.outTargets) && slices.Equal(a.outWeights, b.outWeights) &&
		slices.Equal(a.inOffsets, b.inOffsets) && slices.Equal(a.inSources, b.inSources) && slices.Equal(a.inW(), b.inW())
}

// patchOracle applies the same edit by rebuilding from the edge list.
func patchOracle(g *Graph, n int, removes, upserts []Edge) *Graph {
	type arc struct{ s, d VertexID }
	gone := map[arc]bool{}
	for _, e := range removes {
		gone[arc{e.Src, e.Dst}] = true
	}
	set := map[arc]float32{}
	for _, e := range upserts {
		set[arc{e.Src, e.Dst}] = e.Weight
	}
	var edges []Edge
	for _, e := range g.Edges() {
		if gone[arc{e.Src, e.Dst}] {
			continue
		}
		if w, ok := set[arc{e.Src, e.Dst}]; ok {
			e.Weight = w
			delete(set, arc{e.Src, e.Dst})
		}
		edges = append(edges, e)
	}
	for a, w := range set {
		edges = append(edges, Edge{Src: a.s, Dst: a.d, Weight: w})
	}
	return MustFromEdges(n, edges, BuildOptions{Weighted: g.Weighted()})
}

func checkPatch(t *testing.T, g *Graph, n int, removes, upserts []Edge) *Graph {
	t.Helper()
	got, err := Patch(g, n, removes, upserts)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("patched graph invalid: %v", err)
	}
	if want := patchOracle(g, n, removes, upserts); !sameArrays(got, want) {
		t.Fatalf("Patch differs from rebuild\n got  %v %v | %v %v\n want %v %v | %v %v",
			got.outOffsets, got.outTargets, got.inOffsets, got.inSources,
			want.outOffsets, want.outTargets, want.inOffsets, want.inSources)
	}
	return got
}

func TestPatchEdges(t *testing.T) {
	// 0→1, 0→3, 2→0, 2→2, 4→3; vertices 1 and 3 have empty out rows,
	// vertices 4 (out) and 1 (in) sit at the ends of the arrays.
	base := MustFromEdges(5, []Edge{{0, 1, 1}, {0, 3, 1}, {2, 0, 1}, {2, 2, 1}, {4, 3, 1}}, BuildOptions{})
	cases := []struct {
		name             string
		n                int
		removes, upserts []Edge
	}{
		{"no-op", 5, nil, nil},
		{"insert into empty rows", 5, nil, []Edge{{1, 0, 1}, {1, 4, 1}, {3, 3, 1}}},
		{"first vertex: insert before, between, after", 5, nil, []Edge{{0, 0, 1}, {0, 2, 1}, {0, 4, 1}}},
		{"last vertex: insert and remove", 5, []Edge{{4, 3, 1}}, []Edge{{4, 0, 1}, {4, 4, 1}}},
		{"empty a row", 5, []Edge{{0, 1, 1}, {0, 3, 1}}, nil},
		{"remove everything", 5, []Edge{{0, 1, 1}, {0, 3, 1}, {2, 0, 1}, {2, 2, 1}, {4, 3, 1}}, nil},
		{"swap within a row", 5, []Edge{{2, 0, 1}}, []Edge{{2, 1, 1}}},
		{"upsert of an existing arc is a no-op", 5, nil, []Edge{{0, 1, 1}}},
		{"growth only", 8, nil, nil},
		{"growth with arcs on the new vertices", 7, []Edge{{4, 3, 1}}, []Edge{{0, 6, 1}, {5, 5, 1}, {6, 0, 1}, {6, 5, 1}}},
		{"shrink over a vertex the edit empties", 4, []Edge{{4, 3, 1}}, []Edge{{1, 3, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkPatch(t, base, c.n, c.removes, c.upserts) })
	}
	t.Run("from empty graph", func(t *testing.T) {
		checkPatch(t, MustFromEdges(0, nil, BuildOptions{}), 3, nil, []Edge{{0, 2, 1}, {2, 1, 1}})
	})
	t.Run("growth undone", func(t *testing.T) {
		for _, weighted := range []bool{false, true} {
			g := MustFromEdges(5, []Edge{{0, 1, 2}, {2, 0, 3}, {4, 3, 4}}, BuildOptions{Weighted: weighted})
			grown := checkPatch(t, g, 7, []Edge{{4, 3, 0}}, []Edge{{0, 6, 5}, {5, 5, 6}, {6, 0, 7}})
			back := checkPatch(t, grown, 5, []Edge{{0, 6, 0}, {5, 5, 0}, {6, 0, 0}}, []Edge{{4, 3, 4}})
			if !sameArrays(back, g) {
				t.Fatalf("weighted=%v: growth and its undo do not give the graph back", weighted)
			}
		}
	})
}

func TestPatchWeights(t *testing.T) {
	base := MustFromEdges(4, []Edge{{0, 1, 0.5}, {0, 2, 1.5}, {3, 0, 2.5}}, BuildOptions{Weighted: true})
	got := checkPatch(t, base, 5,
		[]Edge{{0, 1, 0}},
		[]Edge{{0, 2, 9}, {1, 0, 7}, {4, 0, 3}})
	for _, c := range []struct {
		s, d VertexID
		w    float32
	}{{0, 2, 9}, {1, 0, 7}, {3, 0, 2.5}, {4, 0, 3}} {
		if w, ok := got.EdgeWeight(c.s, c.d); !ok || w != c.w {
			t.Errorf("weight(%d,%d) = %v,%v, want %v", c.s, c.d, w, ok, c.w)
		}
	}
	if _, ok := got.EdgeWeight(0, 1); ok {
		t.Error("removed arc still present")
	}
	// The in-side carries the same weights.
	if ws := got.InWeights(0); !reflect.DeepEqual(ws, []float32{7, 2.5, 3}) {
		t.Errorf("in-weights of 0 = %v", ws)
	}
}

func TestPatchRejects(t *testing.T) {
	base := MustFromEdges(3, []Edge{{0, 1, 1}, {1, 2, 1}}, BuildOptions{})
	cases := []struct {
		name             string
		n                int
		removes, upserts []Edge
	}{
		{"shrink past a vertex with an out-arc", 1, nil, nil},
		{"shrink past a vertex with only an in-arc", 2, nil, nil},
		{"shrink past a vertex an upsert reaches", 2, []Edge{{1, 2, 1}}, []Edge{{0, 2, 1}}},
		{"out of range", 3, nil, []Edge{{0, 3, 1}}},
		{"unsorted", 3, nil, []Edge{{1, 0, 1}, {0, 2, 1}}},
		{"duplicate", 3, nil, []Edge{{0, 2, 1}, {0, 2, 1}}},
		{"missing removal", 3, []Edge{{0, 2, 1}}, nil},
		{"missing removal on a new vertex", 4, []Edge{{3, 0, 1}}, nil},
		{"remove and upsert the same arc", 3, []Edge{{0, 1, 1}}, []Edge{{0, 1, 1}}},
	}
	for _, c := range cases {
		if _, err := Patch(base, c.n, c.removes, c.upserts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	multi := MustFromEdges(2, []Edge{{0, 1, 1}, {0, 1, 1}}, BuildOptions{})
	if _, err := Patch(multi, 2, nil, nil); err == nil {
		t.Error("graph with parallel arcs: accepted")
	}
}

// randomEdit draws a valid (removes, upserts) pair for g over n vertices.
func randomEdit(rng *rand.Rand, g *Graph, n, k int) (removes, upserts []Edge) {
	type arc struct{ s, d VertexID }
	seen := map[arc]bool{}
	edges := g.Edges()
	for i := 0; i < k; i++ {
		if len(edges) > 0 && rng.Intn(3) == 0 {
			e := edges[rng.Intn(len(edges))]
			if !seen[arc{e.Src, e.Dst}] {
				seen[arc{e.Src, e.Dst}] = true
				removes = append(removes, e)
			}
			continue
		}
		e := Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: float32(rng.Intn(9))}
		if !seen[arc{e.Src, e.Dst}] {
			seen[arc{e.Src, e.Dst}] = true
			upserts = append(upserts, e)
		}
	}
	for _, l := range [][]Edge{removes, upserts} {
		l := l
		sort.Slice(l, func(i, j int) bool { return arcLess(l[i], l[j]) })
	}
	return removes, upserts
}

func TestPatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		var edges []Edge
		for i := rng.Intn(4 * n); i > 0; i-- {
			edges = append(edges, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: float32(rng.Intn(9))})
		}
		g := MustFromEdges(n, edges, BuildOptions{Dedupe: true, Weighted: trial%2 == 0})
		n1 := n + rng.Intn(3)
		removes, upserts := randomEdit(rng, g, n1, 1+rng.Intn(12))
		checkPatch(t, g, n1, removes, upserts)
	}
}

// TestPatchKeepsSymmetricSidesShared: on a Symmetrize'd graph a
// transpose-closed edit keeps the in-side topology on the out-side
// arrays, weights patched per side, and the result is Symmetrize's of
// its own arc set. An edit that is not closed must un-share: a Patch
// that aliased whenever its input did would leave the in-side of
// "add 0→3 only" claiming 3→0 too.
func TestPatchKeepsSymmetricSidesShared(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		// 0–1, 0–2, 1–2 and 2–3, each with its own weight per direction.
		s := Symmetrize(MustFromEdges(4, []Edge{{0, 1, 1}, {1, 0, 2}, {0, 2, 3}, {1, 2, 4}, {3, 2, 5}}, BuildOptions{Weighted: weighted}))
		if !s.SidesShared() {
			t.Fatal("Symmetrize does not share its sides")
		}
		closed := checkPatch(t, s, 5,
			[]Edge{{0, 2, 0}, {2, 0, 0}},
			[]Edge{{0, 1, 7}, {1, 0, 8}, {1, 4, 6}, {4, 1, 9}})
		if !closed.SidesShared() {
			t.Errorf("weighted=%v: a transpose-closed edit un-shared the sides", weighted)
		}
		if !sameArrays(closed, Symmetrize(closed)) {
			t.Errorf("weighted=%v: closed patch differs from Symmetrize of its arcs", weighted)
		}
		if w, _ := closed.EdgeWeight(1, 0); weighted && w != 8 {
			t.Errorf("weight(1,0) = %v, want 8", w)
		}
		open := checkPatch(t, s, 4, nil, []Edge{{0, 3, 1}})
		if open.SidesShared() {
			t.Errorf("weighted=%v: a one-direction edit kept the sides shared", weighted)
		}
		// A weight-only upsert of one direction is not closed either.
		if weighted && checkPatch(t, s, 4, nil, []Edge{{1, 0, 3}}).SidesShared() {
			t.Error("a one-direction weight update kept the sides shared")
		}
	}
}

// TestPatchSharedRandom runs random edits, closed and not, against
// Symmetrize'd random graphs: every result matches the rebuild, and it
// shares its sides exactly when the edit was closed.
func TestPatchSharedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		var edges []Edge
		for i := rng.Intn(4 * n); i > 0; i-- {
			edges = append(edges, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: float32(rng.Intn(9))})
		}
		s := Symmetrize(MustFromEdges(n, edges, BuildOptions{Weighted: trial%2 == 0}))
		n1 := n + rng.Intn(3)
		removes, upserts := randomEdit(rng, s, n1, 1+rng.Intn(12))
		if trial%3 != 0 {
			removes, upserts = closeEdit(rng, removes, upserts)
		}
		got := checkPatch(t, s, n1, removes, upserts)
		if closed := isClosed(removes, upserts); got.SidesShared() != closed {
			t.Fatalf("trial %d: edit closed=%v but shared=%v", trial, closed, got.SidesShared())
		}
	}
}

// isClosed reports whether an edit's topology is its own transpose.
func isClosed(removes, upserts []Edge) bool {
	type arc struct{ s, d VertexID }
	kind := map[arc]bool{} // arc → removed
	for _, e := range removes {
		kind[arc{e.Src, e.Dst}] = true
	}
	for _, e := range upserts {
		kind[arc{e.Src, e.Dst}] = false
	}
	for a, removed := range kind {
		if r, ok := kind[arc{a.d, a.s}]; !ok || r != removed {
			return false
		}
	}
	return true
}

// closeEdit adds the reverse of every arc of a (removes, upserts) edit
// on a symmetric graph, upserts taking a weight of their own, and drops
// upserts that would then collide with a removal.
func closeEdit(rng *rand.Rand, removes, upserts []Edge) ([]Edge, []Edge) {
	type arc struct{ s, d VertexID }
	gone := map[arc]bool{}
	for _, e := range removes {
		gone[arc{e.Src, e.Dst}], gone[arc{e.Dst, e.Src}] = true, true
	}
	set := map[arc]float32{}
	for _, e := range upserts {
		if !gone[arc{e.Src, e.Dst}] && !gone[arc{e.Dst, e.Src}] {
			set[arc{e.Src, e.Dst}], set[arc{e.Dst, e.Src}] = e.Weight, float32(rng.Intn(9))
		}
	}
	removes, upserts = nil, nil
	for a := range gone {
		removes = append(removes, Edge{Src: a.s, Dst: a.d})
	}
	for a, w := range set {
		upserts = append(upserts, Edge{Src: a.s, Dst: a.d, Weight: w})
	}
	for _, l := range [][]Edge{removes, upserts} {
		sort.Slice(l, func(i, j int) bool { return arcLess(l[i], l[j]) })
	}
	return removes, upserts
}

func TestSimple(t *testing.T) {
	if !RMAT(8, 8, Graph500Params(), 1).Simple() {
		t.Error("deduped R-MAT reported as not simple")
	}
	if MustFromEdges(3, []Edge{{0, 1, 1}, {2, 1, 1}, {0, 1, 2}}, BuildOptions{}).Simple() {
		t.Error("parallel arcs reported as simple")
	}
}

var benchSink *Graph

// BenchmarkGraphPatch is the kernel alone on the serve_mutate shape:
// scale-13 R-MAT, a 32-arc edit, a third of it removals.
func BenchmarkGraphPatch(b *testing.B) {
	g := RMAT(13, 16, Graph500Params(), 7)
	removes, upserts := randomEdit(rand.New(rand.NewSource(7)), g, g.NumVertices(), 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Patch(g, g.NumVertices(), removes, upserts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}
