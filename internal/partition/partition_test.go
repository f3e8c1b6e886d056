package partition

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestChunkedCoversAllVertices(t *testing.T) {
	g := graph.RMAT(10, 8, graph.Graph500Params(), 1)
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		pt, err := NewChunked(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		total := 0
		for i := 0; i < p; i++ {
			total += pt.Size(i)
		}
		if total != g.NumVertices() {
			t.Fatalf("p=%d: chunks cover %d of %d vertices", p, total, g.NumVertices())
		}
	}
}

func TestChunkedRejectsBadP(t *testing.T) {
	g := graph.Ring(10)
	if _, err := NewChunked(g, 0, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestOwnerMatchesRange(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 2)
	pt, err := NewChunked(g, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		o := pt.Owner(graph.VertexID(v))
		lo, hi := pt.Range(o)
		if v < lo || v >= hi {
			t.Fatalf("vertex %d: owner %d range [%d,%d)", v, o, lo, hi)
		}
	}
}

func TestChunkedAlignment(t *testing.T) {
	g := graph.RMAT(10, 16, graph.Graph500Params(), 3)
	pt, err := NewChunked(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < pt.P; i++ {
		if pt.Starts[i]%Align != 0 && pt.Starts[i] != g.NumVertices() {
			t.Fatalf("boundary %d = %d not aligned", i, pt.Starts[i])
		}
	}
}

func TestChunkedEdgeBalance(t *testing.T) {
	g := graph.RMAT(12, 16, graph.Graph500Params(), 4)
	const p = 4
	pt, err := NewChunked(g, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, p)
	for i := 0; i < p; i++ {
		lo, hi := pt.Range(i)
		for v := lo; v < hi; v++ {
			loads[i] += DefaultAlpha + float64(g.OutDegree(graph.VertexID(v)))
		}
	}
	var total float64
	maxLoad := 0.0
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	// R-MAT graphs are skewed; a naive |V|/p split gives the first chunk
	// several times the average load. The balanced chunking should stay
	// within 2x of the mean.
	if maxLoad > 2*total/p {
		t.Fatalf("imbalanced: max load %.0f vs mean %.0f (loads %v)", maxLoad, total/p, loads)
	}
}

func TestMorePartitionsThanVertices(t *testing.T) {
	g := graph.Ring(3)
	pt, err := NewChunked(g, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 8; i++ {
		total += pt.Size(i)
	}
	if total != 3 {
		t.Fatalf("covered %d vertices", total)
	}
}

func TestDegreeClassThreshold(t *testing.T) {
	g := graph.Star(100) // hub in-degree 99, spokes in-degree 1
	pt, err := NewChunked(g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dc := BuildDegreeClass(g, pt, 32)
	if !dc.Tracked(0) {
		t.Fatal("hub not tracked at threshold 32")
	}
	for v := 1; v < 100; v++ {
		if dc.Tracked(graph.VertexID(v)) {
			t.Fatalf("spoke %d tracked", v)
		}
	}
	nTracked := 0
	for _, highs := range dc.Highs {
		nTracked += len(highs)
	}
	if nTracked != 1 {
		t.Fatalf("%d tracked vertices, want 1", nTracked)
	}
}

func TestDegreeClassZeroThresholdTracksAll(t *testing.T) {
	g := graph.Ring(64)
	pt, _ := NewChunked(g, 2, 0)
	dc := BuildDegreeClass(g, pt, 0)
	for v := 0; v < 64; v++ {
		if !dc.Tracked(graph.VertexID(v)) {
			t.Fatalf("vertex %d untracked with threshold 0", v)
		}
	}
	// Dense indices are 0..size-1 per partition, ascending.
	for d := 0; d < pt.P; d++ {
		lo, hi := pt.Range(d)
		for v := lo; v < hi; v++ {
			if got := dc.TrackIndex[v]; got != int32(v-lo) {
				t.Fatalf("TrackIndex[%d] = %d, want %d", v, got, v-lo)
			}
		}
	}
}

func TestLayoutValidOnGenerators(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": graph.RMAT(9, 8, graph.Graph500Params(), 5),
		"star": graph.Star(200),
		"grid": graph.Grid(10, 10),
		"ring": graph.Ring(128),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 4} {
			pt, err := NewChunked(g, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			dc := BuildDegreeClass(g, pt, 32)
			for m := 0; m < p; m++ {
				lay := BuildLayout(g, pt, dc, m)
				if err := lay.Validate(g); err != nil {
					t.Fatalf("%s p=%d m=%d: %v", name, p, m, err)
				}
			}
		}
	}
}

// TestLayoutAttachBlocked checks the blocked-CSR attachment: the view
// covers exactly the machine's master range, validates against the flat
// CSR, and Layout.Validate exercises it once attached. A tiny block
// size forces multi-block machines.
func TestLayoutAttachBlocked(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 5)
	for _, p := range []int{1, 2, 4} {
		pt, err := NewChunked(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		dc := BuildDegreeClass(g, pt, 32)
		for m := 0; m < p; m++ {
			lay := BuildLayout(g, pt, dc, m)
			for _, bv := range []int{0, 64} {
				if err := lay.AttachBlocked(g, bv); err != nil {
					t.Fatalf("p=%d m=%d bv=%d: %v", p, m, bv, err)
				}
				if err := lay.Validate(g); err != nil {
					t.Fatalf("p=%d m=%d bv=%d: %v", p, m, bv, err)
				}
				lo, hi := lay.Blocked.SrcRange()
				wlo, whi := pt.Range(m)
				if lo != wlo || hi != whi {
					t.Fatalf("p=%d m=%d: blocked range [%d,%d), want [%d,%d)", p, m, lo, hi, wlo, whi)
				}
			}
			if lay.Blocked.BlockVerts() != 64 {
				t.Fatalf("explicit block size not kept: %d", lay.Blocked.BlockVerts())
			}
		}
	}
}

func TestLayoutWeightsPreserved(t *testing.T) {
	g := graph.RandomWeights(graph.Grid(6, 6), 9)
	pt, _ := NewChunked(g, 3, 0)
	dc := BuildDegreeClass(g, pt, 2)
	_, inSrc, inW := g.InCSC()
	if inW == nil {
		t.Fatal("weighted graph has no in-side weights")
	}
	for m := 0; m < 3; m++ {
		lay := BuildLayout(g, pt, dc, m)
		for _, b := range lay.Blocks {
			for _, e := range slices.Concat(b.Low, b.Tracked) {
				for j := e.Lo; j < e.Hi(); j++ {
					// Find weight of (src, dst) in the graph.
					found := false
					gws := g.OutWeights(inSrc[j])
					for k, nb := range g.OutNeighbors(inSrc[j]) {
						if nb == e.Dst && gws[k] == inW[j] {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("weight mismatch for edge (%d,%d)", inSrc[j], e.Dst)
					}
				}
			}
		}
	}
}

// Property: across all machines, blocks partition the edge set exactly —
// every edge appears in exactly one block of exactly one machine.
func TestQuickBlocksPartitionEdges(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%6 + 1
		g := graph.Uniform(256, 2048, seed)
		pt, err := NewChunked(g, p, 0)
		if err != nil {
			return false
		}
		dc := BuildDegreeClass(g, pt, 32)
		_, inSrc, _ := g.InCSC()
		type edge struct{ s, d graph.VertexID }
		seen := map[edge]int{}
		for m := 0; m < p; m++ {
			lay := BuildLayout(g, pt, dc, m)
			if lay.Validate(g) != nil {
				return false
			}
			for _, b := range lay.Blocks {
				for _, e := range slices.Concat(b.Low, b.Tracked) {
					for _, src := range inSrc[e.Lo:e.Hi()] {
						seen[edge{src, e.Dst}]++
					}
				}
			}
		}
		if int64(len(seen)) != g.NumEdges() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
