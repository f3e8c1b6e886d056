package algorithms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// The reference programs below are ConnectedComponents, SSSP and
// PageRank as they were before the sparse push learned to ship
// improvements instead of edges: one record per scanned out-edge, one
// division per scanned in-edge. They exist only as what the identity
// tests compare against.

func refConnectedComponents(c core.Engine) ([]uint32, error) {
	n := c.Graph().NumVertices()
	out := make([]uint32, n)
	err := c.Run(func(w *core.Worker) error {
		label := make([]uint32, n)
		for v := range label {
			label[v] = uint32(v)
		}
		lo, hi := w.MasterRange()
		changed := bitset.New(n)
		for v := lo; v < hi; v++ {
			changed.Set(v)
		}
		for {
			next := bitset.New(n)
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[uint32]{
				Frontier: localFrontierList(w, changed),
				Signal: func(ctx *core.SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
					for _, d := range dsts {
						ctx.Edge()
						ctx.EmitTo(d, label[src])
					}
				},
				Slot: func(dst graph.VertexID, l uint32) {
					if l < label[dst] {
						label[dst] = l
						next.Set(int(dst))
					}
				},
			})
			if err != nil {
				return err
			}
			if emitted == 0 {
				break
			}
			changed = next
		}
		if err := core.Gather(w, label); err != nil {
			return err
		}
		if w.ID() == 0 {
			copy(out, label)
		}
		return nil
	})
	return out, err
}

// refSSSP is SSSP's bucket rule without the MinFilter: every scanned
// edge whose source is below the bound ships its candidate. It returns
// the distances as bit patterns.
func refSSSP(c core.Engine, root graph.VertexID) ([]uint32, error) {
	g := c.Graph()
	n := g.NumVertices()
	delta := bucketWidth(g)
	out := make([]uint32, n)
	err := c.Run(func(w *core.Worker) error {
		dist := make([]float32, n)
		for v := range dist {
			dist[v] = InfDist
		}
		changed := bitset.New(n)
		if w.Owns(root) {
			dist[root] = 0
			changed.Set(int(root))
		}
		lo, hi := w.MasterRange()
		for bound := delta; ; {
			var frontier []graph.VertexID
			least := math.Inf(1)
			for v := lo; v < hi; v++ {
				if !changed.Get(v) {
					continue
				}
				if d := float64(dist[v]); d < bound {
					frontier = append(frontier, graph.VertexID(v))
					changed.Clear(v)
				} else {
					least = math.Min(least, d)
				}
			}
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[float32]{
				Frontier: frontier,
				Signal: func(ctx *core.SparseCtx[float32], src graph.VertexID, dsts []graph.VertexID, ws []float32) {
					for i, d := range dsts {
						ctx.Edge()
						ctx.EmitTo(d, dist[src]+ws[i])
						ctx.Least(float64(dist[src] + ws[i]))
					}
				},
				Slot: func(dst graph.VertexID, cand float32) {
					if cand < dist[dst] {
						dist[dst] = cand
						changed.Set(int(dst))
					}
				},
				Least: &least,
			})
			if err != nil {
				return err
			}
			if emitted == 0 && math.IsInf(least, 1) {
				break
			}
			if least >= bound {
				bound = nextBound(least, delta)
			}
		}
		return gatherBits(w, dist, out)
	})
	return out, err
}

// refBellmanFord is SSSP as it was before the bucket bound: every changed
// master pushes every pass, through the MinFilter.
func refBellmanFord(c core.Engine, root graph.VertexID) ([]uint32, error) {
	n := c.Graph().NumVertices()
	out := make([]uint32, n)
	err := c.Run(func(w *core.Worker) error {
		dist := make([]float32, n)
		for v := range dist {
			dist[v] = InfDist
		}
		changed, next := bitset.New(n), bitset.New(n)
		if w.Owns(root) {
			dist[root] = 0
			changed.Set(int(root))
		}
		filter := core.NewMinFilter(w, math.Float32bits(InfDist))
		for {
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[float32]{
				Frontier: localFrontierList(w, changed),
				Signal: func(ctx *core.SparseCtx[float32], src graph.VertexID, dsts []graph.VertexID, ws []float32) {
					for i, d := range dsts {
						ctx.Edge()
						if cand := dist[src] + ws[i]; filter.ImprovesF32(d, cand, dist) {
							ctx.EmitTo(d, cand)
						}
					}
				},
				Slot: func(dst graph.VertexID, cand float32) {
					if cand < dist[dst] {
						dist[dst] = cand
						next.Set(int(dst))
					}
				},
			})
			if err != nil {
				return err
			}
			if emitted == 0 {
				break
			}
			changed, next = next, changed
			next.ClearAll()
		}
		return gatherBits(w, dist, out)
	})
	return out, err
}

// gatherBits gathers the masters' distances to node 0 as bit patterns,
// into out.
func gatherBits(w *core.Worker, dist []float32, out []uint32) error {
	bits := make([]uint32, len(dist))
	lo, hi := w.MasterRange()
	for v := lo; v < hi; v++ {
		bits[v] = math.Float32bits(dist[v])
	}
	if err := core.Gather(w, bits); err != nil {
		return err
	}
	if w.ID() == 0 {
		copy(out, bits)
	}
	return nil
}

func refPageRank(c core.Engine, iters int, damping float64) ([]float64, error) {
	g := c.Graph()
	n := g.NumVertices()
	out := make([]float64, n)
	err := c.Run(func(w *core.Worker) error {
		rank := make([]float64, n)
		next := make([]float64, n)
		for v := range rank {
			rank[v] = 1 / float64(n)
		}
		base := (1 - damping) / float64(n)
		lo, hi := w.MasterRange()
		for it := 0; it < iters; it++ {
			for v := lo; v < hi; v++ {
				next[v] = 0
			}
			if err := core.ProcessEdgesDense(w, core.DenseParams[float64]{
				Signal: func(ctx *core.DenseCtx[float64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					sum := 0.0
					for _, u := range srcs {
						ctx.Edge()
						if d := g.OutDegree(u); d > 0 {
							sum += rank[u] / float64(d)
						}
					}
					ctx.Emit(sum)
				},
				Slot: func(dst graph.VertexID, contrib float64) {
					next[dst] += contrib
				},
			}); err != nil {
				return err
			}
			for v := lo; v < hi; v++ {
				rank[v] = base + damping*next[v]
			}
		}
		if err := core.AllGather(w, rank); err != nil {
			return err
		}
		if w.ID() == 0 {
			copy(out, rank)
		}
		return nil
	})
	return out, err
}

// minPush is one of the two min-combining programs, filtered and
// reference, with results as comparable bit patterns.
type minPush struct {
	name     string
	filtered func(c core.Engine) ([]uint32, error)
	ref      func(c core.Engine) ([]uint32, error)
}

func minPushes(root graph.VertexID) []minPush {
	return []minPush{
		{"cc", ConnectedComponents, refConnectedComponents},
		{"sssp", func(c core.Engine) ([]uint32, error) {
			dist, err := SSSP(c, root)
			bits := make([]uint32, len(dist))
			for v, d := range dist {
				bits[v] = math.Float32bits(d)
			}
			return bits, err
		}, func(c core.Engine) ([]uint32, error) { return refSSSP(c, root) }},
	}
}

// runStats runs prog on c and returns its result and the run's totals.
func runStats(t *testing.T, c *core.Cluster, prog func(core.Engine) ([]uint32, error)) ([]uint32, core.RunStats) {
	t.Helper()
	res, err := prog(c)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.Stats().Totals
}

func equalBits(t *testing.T, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %#x, reference %#x", v, got[v], want[v])
		}
	}
}

// disconnectedGraph is two components of different shape, a few
// vertices hanging off neither, and a run of isolated vertices.
func disconnectedGraph() *graph.Graph {
	edges := graph.Uniform(200, 1200, 21).Edges()
	for v := 300; v < 420; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(300 + (v-300+1)%120)})
	}
	edges = append(edges, graph.Edge{Src: 450, Dst: 451}, graph.Edge{Src: 451, Dst: 452})
	return graph.MustFromEdges(500, edges, graph.BuildOptions{Dedupe: true})
}

// namedGraph is one graph of a test matrix.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// filterGraphs are the min-combining programs' test graphs: skewed,
// uniform, one hub, long and thin, and disconnected.
func filterGraphs() []namedGraph {
	return []namedGraph{
		{"rmat", graph.Symmetrize(graph.RMAT(10, 8, graph.Graph500Params(), 31))},
		{"uniform", graph.Symmetrize(graph.Uniform(600, 4000, 32))},
		{"star", graph.Star(300)},
		{"path", graph.Symmetrize(graph.Path(257))},
		{"disconnected", graph.Symmetrize(disconnectedGraph())},
	}
}

// buffersCases is the NumBuffers dimension of the two min-filter
// matrices. CC and SSSP only push, so the cells pin that the option which
// shapes the dense driver's framing leaves the sparse path alone. They
// keep the labels they carried while the dimension was the scan
// generation (the binned scan's single dependency frame per step is
// NumBuffers 1, the retired scan's frame per buffer group NumBuffers 2),
// so test ids stay comparable across the retirement of that flag.
var buffersCases = []struct {
	label   string
	buffers int
}{{"legacy=false", 1}, {"legacy=true", 2}}

// TestMinFilterIdentity: against the unfiltered reference, the filtered
// CC and SSSP produce the same bits over the same scanned edges with the
// same frames per pass, and ship no more — on a skewed graph strictly
// fewer — update bytes, deterministically at Workers == 1. The filtered
// run may take fewer passes. CC's last improving pass can be followed by
// one that emits nothing; SSSP's least is tighter (it leaves out the
// candidates the filter drops), so the bound clears a finished bucket
// sooner and the empty passes the unfiltered run spends reaching the same
// bound are skipped. The pushed frontiers, hence the edges, are the same:
// a frontier is the changed masters below the first boundary above their
// minimum, whichever run computes it.
func TestMinFilterIdentity(t *testing.T) {
	for _, gc := range filterGraphs() {
		g := graph.RandomWeights(gc.g, 33)
		root, _ := graph.LargestOutDegreeVertex(g)
		for _, p := range []int{1, 2, 3, 4, 7} {
			for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
				for _, bc := range buffersCases {
					opts := core.Options{NumNodes: p, Mode: mode, NumBuffers: bc.buffers}
					t.Run(fmt.Sprintf("%s/p=%d/%v/%s", gc.name, p, mode, bc.label), func(t *testing.T) {
						c := mustAlgCluster(t, g, opts)
						for _, mp := range minPushes(root) {
							want, ref := runStats(t, c, mp.ref)
							got, st := runStats(t, c, mp.filtered)
							equalBits(t, got, want)
							// A pass costs the same frames in both.
							passes, refPasses := st.Supersteps/int64(p), ref.Supersteps/int64(p)
							fewer := passes == refPasses || passes == refPasses-1
							if mp.name == "sssp" {
								fewer = passes <= refPasses
							}
							if !fewer || st.EdgesTraversed != ref.EdgesTraversed ||
								st.UpdateMessages*ref.Supersteps != ref.UpdateMessages*st.Supersteps {
								t.Fatalf("%s: supersteps/edges/frames %d/%d/%d, reference %d/%d/%d", mp.name,
									st.Supersteps, st.EdgesTraversed, st.UpdateMessages,
									ref.Supersteps, ref.EdgesTraversed, ref.UpdateMessages)
							}
							if st.UpdateBytes > ref.UpdateBytes ||
								(gc.name == "rmat" && p > 1 && st.UpdateBytes >= ref.UpdateBytes) {
								t.Fatalf("%s: %d update bytes, reference %d", mp.name, st.UpdateBytes, ref.UpdateBytes)
							}
							again, st2 := runStats(t, c, mp.filtered)
							equalBits(t, again, want)
							if st2.UpdateBytes != st.UpdateBytes {
								t.Fatalf("%s: %d update bytes, then %d: not deterministic at Workers == 1",
									mp.name, st.UpdateBytes, st2.UpdateBytes)
							}
						}
					})
				}
			}
		}
	}
}

// TestMinFilterParallelScan runs the filtered push with scans that
// really fork, which is what the race detector needs to see: the scan
// forks only when a machine has at least 2·Workers source blocks of 4096
// vertices (scale 15: one node at Workers 2 and 4, two nodes at Workers
// 2). At Workers > 1 which records survive the filter depends on
// scheduling, so only the results are compared.
func TestMinFilterParallelScan(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-15 graph")
	}
	g := graph.RandomWeights(graph.Symmetrize(graph.RMAT(15, 4, graph.Graph500Params(), 41)), 42)
	root, _ := graph.LargestOutDegreeVertex(g)
	progs := minPushes(root)
	want := make([][]uint32, len(progs))
	ref := mustAlgCluster(t, g, core.Options{NumNodes: 2})
	for i, mp := range progs {
		want[i], _ = runStats(t, ref, mp.ref)
	}
	for _, p := range []int{1, 2} {
		for _, workers := range []int{2, 4} {
			for _, bc := range buffersCases {
				t.Run(fmt.Sprintf("p=%d/w=%d/%s", p, workers, bc.label), func(t *testing.T) {
					c := mustAlgCluster(t, g, core.Options{NumNodes: p, Workers: workers, NumBuffers: bc.buffers})
					for i, mp := range progs {
						got, _ := runStats(t, c, mp.filtered)
						equalBits(t, got, want[i])
					}
				})
			}
		}
	}
}

// TestPageRankBitIdentical: hoisting rank[u]/outdeg(u) out of the edge
// loop divides the same operands once instead of once per in-edge, so
// every rank keeps every bit.
func TestPageRankBitIdentical(t *testing.T) {
	// Vertices 0–39 form a random graph; 40–49 only receive (dangling:
	// no out-edge); 50–59 touch nothing.
	edges := graph.Uniform(40, 200, 51).Edges()
	for v := 40; v < 50; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v - 40), Dst: graph.VertexID(v)},
			graph.Edge{Src: graph.VertexID(v - 20), Dst: graph.VertexID(v)})
	}
	graphs := map[string]*graph.Graph{
		"rmat":     graph.RMAT(10, 8, graph.Graph500Params(), 52),
		"dangling": graph.MustFromEdges(60, edges, graph.BuildOptions{Dedupe: true}),
	}
	for name, g := range graphs {
		for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
			for _, p := range []int{1, 3, 4} {
				c := mustAlgCluster(t, g, core.Options{NumNodes: p, Mode: mode})
				for iters := 1; iters <= 8; iters++ {
					want, err := refPageRank(c, iters, 0.85)
					if err != nil {
						t.Fatal(err)
					}
					edgesRef := c.Stats().Totals.EdgesTraversed
					got, err := PageRank(c, iters, 0.85)
					if err != nil {
						t.Fatal(err)
					}
					if e := c.Stats().Totals.EdgesTraversed; e != edgesRef {
						t.Fatalf("%s/%v/p=%d/iters=%d: %d edges, reference %d", name, mode, p, iters, e, edgesRef)
					}
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("%s/%v/p=%d/iters=%d: rank[%d] = %x, reference %x", name, mode, p, iters,
								v, math.Float64bits(got[v]), math.Float64bits(want[v]))
						}
					}
				}
			}
		}
	}
}
