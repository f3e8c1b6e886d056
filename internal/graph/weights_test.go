package graph

import (
	"math"
	"math/rand"
	"testing"
)

// eagerScatter is the in-side WithWeights built up front before it
// deferred the scatter to the first read.
func eagerScatter(g *Graph) []float32 {
	in := make([]float32, len(g.inSources))
	cursor := make([]int64, g.n)
	copy(cursor, g.inOffsets[:g.n])
	for i, dst := range g.outTargets {
		in[cursor[dst]] = g.outWeights[i]
		cursor[dst]++
	}
	return in
}

// checkLazyIn fails unless w, fresh from WithWeights, holds no in-side
// array until InCSC or InWeights reads it and then holds eagerScatter's,
// bit for bit; InTopology and the out-side readers must not scatter it.
func checkLazyIn(t *testing.T, name string, w *Graph, read func(*Graph) []float32) {
	t.Helper()
	w.InTopology()
	w.Edges()
	for v := 0; v < w.NumVertices(); v++ {
		w.OutWeights(VertexID(v))
	}
	if InSideHeld(w) {
		t.Fatalf("%s: the in-side was scattered before any read of it", name)
	}
	got, want := read(w), eagerScatter(w)
	if !InSideHeld(w) {
		t.Fatalf("%s: a read left no in-side array", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d in-side weights, the eager scatter has %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: in-side weight %d is %v, the eager scatter's %v", name, i, got[i], want[i])
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestWithWeightsScattersOnRead: a WithWeights graph holds no in-side
// array until a reader asks for it, through InCSC or row by row through
// InWeights, and then holds the eager scatter bit for bit — over an
// unweighted, a weighted and a parallel-arc input, and over every graph
// of a Patch chain, whose patches of a re-weighted graph equal the
// rebuild too.
func TestWithWeightsScattersOnRead(t *testing.T) {
	whole := func(g *Graph) []float32 { _, _, w := g.InCSC(); return w }
	rows := func(g *Graph) []float32 {
		var w []float32
		for v := 0; v < g.NumVertices(); v++ {
			w = append(w, g.InWeights(VertexID(v))...)
		}
		return w
	}
	parallel := MustFromEdges(4, []Edge{{0, 1, 1}, {0, 1, 1}, {2, 1, 1}, {3, 0, 1}, {3, 0, 1}, {1, 3, 1}}, BuildOptions{})
	if parallel.Simple() {
		t.Fatal("the parallel-arc input is simple")
	}
	inputs := map[string]*Graph{
		"unweighted": RMAT(9, 8, Graph500Params(), 5),
		"weighted":   RandomWeights(Symmetrize(RMAT(8, 8, Graph500Params(), 6)), 3),
		"parallel":   parallel,
	}
	for name, g := range inputs {
		for i, read := range []func(*Graph) []float32{whole, rows} {
			w := RandomWeights(g, int64(i)+1)
			checkLazyIn(t, name, w, read)
		}
	}

	rng := rand.New(rand.NewSource(9))
	g := RMAT(8, 8, Graph500Params(), 7)
	draws := DrawWeights(nil, rand.New(rand.NewSource(7)), 4*int(g.NumEdges()))
	for step := 0; step < 6; step++ {
		w := WithWeights(g, draws[:g.NumEdges()])
		checkLazyIn(t, "chain", w, whole)
		removes, upserts := randomEdit(rng, g, g.NumVertices(), 24)
		checkPatch(t, WithWeights(g, draws[:g.NumEdges()]), g.NumVertices(), removes, upserts)
		next, err := Patch(g, g.NumVertices(), removes, upserts)
		if err != nil {
			t.Fatal(err)
		}
		g = next
	}
}
