package partition

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// refBlock is a block in the copied form the engine used before blocks
// became views: the arcs themselves, grouped by destination.
type refBlock struct {
	Dsts    []graph.VertexID
	Offsets []int64
	Srcs    []graph.VertexID
	Weights []float32
}

// buildLayoutReference is the sort-based builder BuildLayout replaced,
// kept as the oracle: copy every out-arc of machine m, sort each
// destination partition's share by (dst, src). The sort is stable so
// parallel arcs keep their out-row order, which is the order FromEdges
// files them in the in-CSC.
func buildLayoutReference(g *graph.Graph, pt *Partition, m int) []*refBlock {
	lo, hi := pt.Range(m)
	type rec struct {
		src, dst graph.VertexID
		w        float32
	}
	perPart := make([][]rec, pt.P)
	for u := lo; u < hi; u++ {
		nbrs := g.OutNeighbors(graph.VertexID(u))
		ws := g.OutWeights(graph.VertexID(u))
		for i, v := range nbrs {
			d := pt.Owner(v)
			w := float32(1)
			if ws != nil {
				w = ws[i]
			}
			perPart[d] = append(perPart[d], rec{src: graph.VertexID(u), dst: v, w: w})
		}
	}
	blocks := make([]*refBlock, pt.P)
	for d := 0; d < pt.P; d++ {
		recs := perPart[d]
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].dst != recs[j].dst {
				return recs[i].dst < recs[j].dst
			}
			return recs[i].src < recs[j].src
		})
		b := &refBlock{}
		for _, r := range recs {
			if len(b.Dsts) == 0 || b.Dsts[len(b.Dsts)-1] != r.dst {
				b.Dsts = append(b.Dsts, r.dst)
				b.Offsets = append(b.Offsets, int64(len(b.Srcs)))
			}
			b.Srcs = append(b.Srcs, r.src)
			if g.Weighted() {
				b.Weights = append(b.Weights, r.w)
			}
		}
		b.Offsets = append(b.Offsets, int64(len(b.Srcs)))
		blocks[d] = b
	}
	return blocks
}

// requireMatchesReference builds machine m's view, compares it with the
// reference destination by destination and weight bit by weight bit, and
// returns it. Merged, the two streams must list exactly the reference's
// ascending destinations: each destination is looked for at the head of
// its own class's stream, so an entry in the wrong stream, out of order,
// missing or extra fails.
func requireMatchesReference(t testing.TB, g *graph.Graph, pt *Partition, dc *DegreeClass, m int) *Layout {
	t.Helper()
	lay := BuildLayout(g, pt, dc, m)
	ref := buildLayoutReference(g, pt, m)
	if len(lay.Blocks) != len(ref) {
		t.Fatalf("m=%d: %d blocks, reference has %d", m, len(lay.Blocks), len(ref))
	}
	_, inSrc, inW := g.InCSC()
	if (inW != nil) != g.Weighted() {
		t.Fatalf("in-side weights present=%v on weighted=%v graph", inW != nil, g.Weighted())
	}
	for d, b := range lay.Blocks {
		r := ref[d]
		if b.NumEdges() != int64(len(r.Srcs)) {
			t.Fatalf("m=%d d=%d: NumEdges %d, reference %d", m, d, b.NumEdges(), len(r.Srcs))
		}
		if len(b.Low)+len(b.Tracked) != len(r.Dsts) {
			t.Fatalf("m=%d d=%d: streams list %d+%d destinations, reference %d", m, d, len(b.Low), len(b.Tracked), len(r.Dsts))
		}
		low, tracked := b.Low, b.Tracked
		for i, dst := range r.Dsts {
			stream := &low
			if dc.Tracked(dst) {
				stream = &tracked
			}
			if len(*stream) == 0 || (*stream)[0].Dst != dst {
				t.Fatalf("m=%d d=%d: dst %d (tracked index %d) is not next in its stream (low %v | tracked %v)",
					m, d, dst, dc.TrackIndex[dst], b.Low, b.Tracked)
			}
			e := (*stream)[0]
			*stream = (*stream)[1:]
			rlo, rhi := r.Offsets[i], r.Offsets[i+1]
			if !slices.Equal(inSrc[e.Lo:e.Hi()], r.Srcs[rlo:rhi]) {
				t.Fatalf("m=%d d=%d dst=%d: sources %v, reference %v", m, d, dst, inSrc[e.Lo:e.Hi()], r.Srcs[rlo:rhi])
			}
			for j := e.Lo; inW != nil && j < e.Hi(); j++ {
				if want := r.Weights[rlo+j-e.Lo]; math.Float32bits(inW[j]) != math.Float32bits(want) {
					t.Fatalf("m=%d d=%d dst=%d src=%d: weight %v, reference %v", m, d, dst, inSrc[j], inW[j], want)
				}
			}
		}
	}
	return lay
}

// multigraph draws m arcs over n vertices with replacement and keeps the
// repeats, each with its own weight.
func multigraph(n, m int, seed int64, weighted bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: rng.Float32(),
		}
	}
	return graph.MustFromEdges(n, edges, graph.BuildOptions{Weighted: weighted})
}

// TestLayoutMatchesReference pins the view to the sort-based builder it
// replaced, over graph shapes × machine counts (including more machines
// than vertices, hence empty machines) × thresholds × weight forms.
func TestLayoutMatchesReference(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"rmat":    graph.RMAT(9, 8, graph.Graph500Params(), 5),
		"uniform": graph.Uniform(300, 2400, 6),
		"star":    graph.Star(200),
		"path":    graph.Path(130),
		"tiny":    graph.Path(5),
	}
	graphs := map[string]*graph.Graph{
		"parallel":          multigraph(64, 2000, 7, false),
		"parallel-weighted": multigraph(64, 2000, 8, true),
	}
	for name, g := range shapes {
		graphs[name] = g
		graphs[name+"-weighted"] = graph.RandomWeights(g, 9)
	}
	if graphs["parallel"].Simple() {
		t.Fatal("multigraph drew no parallel arc")
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 3, 4, 7, 16} {
			pt, err := NewChunked(g, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, threshold := range []int{0, 2, 32} {
				dc := BuildDegreeClass(g, pt, threshold)
				t.Run(fmt.Sprintf("%s/p=%d/t=%d", name, p, threshold), func(t *testing.T) {
					for m := 0; m < p; m++ {
						if err := requireMatchesReference(t, g, pt, dc, m).Validate(g); err != nil {
							t.Fatalf("m=%d: %v", m, err)
						}
					}
				})
			}
		}
	}
}

// TestLayoutValidateRejectsTampering checks the invariants Validate adds
// for the view: a range that is not the maximal run of local masters, a
// missing destination, a destination in the wrong class's stream, and
// tracked destinations out of order.
func TestLayoutValidateRejectsTampering(t *testing.T) {
	g := graph.RandomWeights(graph.Uniform(256, 4096, 3), 4)
	pt, err := NewChunked(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dc := BuildDegreeClass(g, pt, 16)
	fresh := func() (*Layout, *Block) {
		lay := BuildLayout(g, pt, dc, 1)
		for _, b := range lay.Blocks {
			if len(b.Low) > 1 && len(b.Tracked) > 1 && b.Low[0].N > 1 {
				return lay, b
			}
		}
		t.Fatal("no block with both classes and a multi-arc first low destination")
		return nil, nil
	}
	if lay, _ := fresh(); lay.Validate(g) != nil {
		t.Fatal("untampered layout rejected")
	}

	lay, b := fresh()
	b.Low[0].N-- // drops the row's last local master: the machines no longer tile it
	b.edges--
	if lay.Validate(g) == nil {
		t.Fatal("short range accepted")
	}

	lay, b = fresh()
	b.Low = b.Low[1:]
	if lay.Validate(g) == nil {
		t.Fatal("missing destination accepted")
	}

	lay, b = fresh()
	b.Low, b.Tracked = b.Low[1:], slices.Insert(slices.Clone(b.Tracked), 0, b.Low[0])
	if lay.Validate(g) == nil {
		t.Fatal("low destination in the tracked stream accepted")
	}

	lay, b = fresh()
	b.Tracked[0], b.Tracked[1] = b.Tracked[1], b.Tracked[0]
	if lay.Validate(g) == nil {
		t.Fatal("tracked destinations out of order accepted")
	}
}

// FuzzLayoutView drives the in-side builder the way FuzzBlockedCSR drives
// the out-side one: random multigraphs, random (unaligned, possibly
// empty) machine ranges, random thresholds, checked against both the
// reference builder and Validate.
func FuzzLayoutView(f *testing.F) {
	f.Add(int64(1), uint16(32), uint16(40), uint8(2), uint8(4), false)
	f.Add(int64(2), uint16(1), uint16(0), uint8(1), uint8(0), true)
	f.Add(int64(3), uint16(100), uint16(900), uint8(7), uint8(3), false)
	f.Add(int64(4), uint16(257), uint16(50), uint8(3), uint8(200), true)
	f.Add(int64(5), uint16(3), uint16(30), uint8(7), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint16, pRaw, thRaw uint8, weighted bool) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%1024 + 1
		p := int(pRaw)%8 + 1
		g := multigraph(n, int(mRaw), seed, weighted)

		starts := make([]int, p+1)
		for q := 1; q < p; q++ {
			starts[q] = rng.Intn(n + 1)
		}
		starts[p] = n
		sort.Ints(starts)
		pt := &Partition{P: p, NumV: n, Starts: starts}
		dc := BuildDegreeClass(g, pt, int(thRaw)%40)

		var total int64
		for m := 0; m < p; m++ {
			lay := requireMatchesReference(t, g, pt, dc, m)
			if err := lay.Validate(g); err != nil {
				t.Fatalf("n=%d p=%d starts=%v m=%d: %v", n, p, starts, m, err)
			}
			for _, b := range lay.Blocks {
				total += b.NumEdges()
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("the %d machines' blocks hold %d edges, graph has %d", p, total, g.NumEdges())
		}
	})
}

// BenchmarkBuildLayout builds all four machines' layouts of a scale-13
// graph, or all sixteen in the p16 case. The ef8/ef32 pair shares its
// vertex set: B/op follows the stream entries, at most |V| per machine,
// not |E|, so the denser graph costs more only by the destinations it
// adds. Beside B/op, live-B/op is what one build's layouts keep once
// collections have run.
func BenchmarkBuildLayout(b *testing.B) {
	const scale = 13
	base := graph.RMAT(scale, 16, graph.Graph500Params(), 1)
	cases := []struct {
		name  string
		g     *graph.Graph
		nodes int
	}{
		{"directed", base, 4},
		{"undirected", graph.Symmetrize(base), 4},
		{"weighted", graph.RandomWeights(base, 7), 4},
		{"ef8", graph.RMAT(scale, 8, graph.Graph500Params(), 1), 4},
		{"ef32", graph.RMAT(scale, 32, graph.Graph500Params(), 1), 4},
		{"p16", base, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pt, err := NewChunked(c.g, c.nodes, 0)
			if err != nil {
				b.Fatal(err)
			}
			dc := BuildDegreeClass(c.g, pt, 32)
			lays := make([]*Layout, c.nodes)
			before := liveHeap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for m := range lays {
					lays[m] = BuildLayout(c.g, pt, dc, m)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(liveHeap()-before), "live-B/op")
			runtime.KeepAlive(lays)
		})
	}
}

// liveHeap returns the heap in use once two collections have emptied
// the sync.Pools' victim caches too: what the live objects hold.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBuildLayoutAllocatesPerVertex holds what a 4-machine build
// allocates to what its layouts keep: 16 bytes per stream entry, one
// sweep scratch of 16 bytes per vertex shared by the machines, a page
// per machine for the allocator's size-class rounding and a few hundred
// bytes per (machine, partition) — nothing per arc, and no stream
// capacity beyond its length. Garbage collection is off while it
// measures, so the scratch is not dropped between machines.
func TestBuildLayoutAllocatesPerVertex(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals differ under the race detector")
	}
	const p = 4
	for _, ef := range []int{8, 32} {
		g := graph.RMAT(13, ef, graph.Graph500Params(), 1)
		pt, err := NewChunked(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		dc := BuildDegreeClass(g, pt, 32)
		lays := make([]*Layout, p)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for m := range lays {
			lays[m] = BuildLayout(g, pt, dc, m)
		}
		runtime.ReadMemStats(&after)
		entries := 0
		for _, lay := range lays {
			for _, b := range lay.Blocks {
				entries += len(b.Low) + len(b.Tracked)
				if cap(b.Low) != len(b.Low) || cap(b.Tracked) != len(b.Tracked) {
					t.Fatalf("ef %d: a stream holds %d+%d entries in %d+%d slots", ef, len(b.Low), len(b.Tracked), cap(b.Low), cap(b.Tracked))
				}
			}
		}
		bound := uint64(16*(entries+g.NumVertices()) + p*8192 + p*p*512)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("ef %d: %d machines allocate %d B for %d stream entries over %d vertices, bound %d B",
				ef, p, got, entries, g.NumVertices(), bound)
		}
		if size := unsafe.Sizeof(Dest{}); size != 16 {
			t.Fatalf("a stream entry is %d bytes, want 16", size)
		}
	}
}
