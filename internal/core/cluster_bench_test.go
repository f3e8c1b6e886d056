package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// BenchmarkNewCluster is what a pool slot pays per (epoch, variant,
// mode): chunking, degree classes, the layout views and blocked CSRs of
// four machines over a scale-13 graph, and of sixteen in the p16 case.
// Beside B/op, live-B/op is what one cluster keeps once collections have
// run.
func BenchmarkNewCluster(b *testing.B) {
	base := graph.RMAT(13, 16, graph.Graph500Params(), 1)
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		nodes int
	}{
		{"directed", base, 4},
		{"undirected", graph.Symmetrize(base), 4},
		{"weighted", graph.RandomWeights(base, 7), 4},
		{"p16", base, 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			var cl *Cluster
			before := LiveHeap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if cl, err = NewCluster(c.g, Options{NumNodes: c.nodes, Mode: ModeSympleGraph}); err != nil {
					b.Fatal(err)
				}
				cl.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(LiveHeap()-before), "live-B/op")
			runtime.KeepAlive(cl)
		})
	}
}

// BenchmarkAdvance is what a re-filed pool slot pays instead of
// BenchmarkNewCluster when a 32-op commit lands: the same scale-13
// clusters moved to the next epoch's graph by Advance. Iterations
// alternate between the two epochs; the batch's effective delta names
// the arcs that differ either way.
func BenchmarkAdvance(b *testing.B) {
	base := graph.RMAT(13, 16, graph.Graph500Params(), 1)
	edges := base.Edges()
	rng := rand.New(rand.NewSource(1))
	var batch mutate.Batch
	for j := 0; j < 32; j++ {
		m := mutate.Mutation{Op: mutate.OpAddEdge, Src: graph.VertexID(rng.Intn(base.NumVertices())), Dst: graph.VertexID(rng.Intn(base.NumVertices())), Weight: 1}
		if j%3 == 2 {
			e := edges[rng.Intn(len(edges))]
			m = mutate.Mutation{Op: mutate.OpRemoveEdge, Src: e.Src, Dst: e.Dst}
		}
		batch.Ops = append(batch.Ops, m)
	}
	store, err := mutate.NewStore(base, 2)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := store.Commit(batch)
	if err != nil {
		b.Fatal(err)
	}
	next := snap.Graph()
	for _, c := range []struct {
		name    string
		variant func(*graph.Graph) *graph.Graph
	}{
		{"directed", func(g *graph.Graph) *graph.Graph { return g }},
		{"undirected", graph.Symmetrize},
		{"weighted", func(g *graph.Graph) *graph.Graph { return graph.RandomWeights(g, 7) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			epochs := [2]*graph.Graph{c.variant(base), c.variant(next)}
			cl, err := NewCluster(epochs[0], Options{NumNodes: 4, Mode: ModeSympleGraph})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Advance(epochs[(i+1)%2], snap.Effective()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// firstHitPass runs `passes` dense passes of the bottom-up-BFS skeleton —
// destinations outside `visited` look for their first `frontier`
// in-neighbor and break — and returns how many signals ran.
func firstHitPass(c *Cluster, visited, frontier *bitset.Bitmap, passes int) (visits int64, err error) {
	perNode := make([]int64, c.Options().NumNodes)
	err = c.Run(func(w *Worker) error {
		params := DenseParams[uint32]{
			Except: visited,
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				perNode[w.ID()]++
				for _, u := range srcs {
					ctx.Edge()
					if frontier.Get(int(u)) {
						ctx.Emit(uint32(u))
						ctx.EmitDep()
						break
					}
				}
			},
			Slot: func(graph.VertexID, uint32) {},
		}
		for i := 0; i < passes; i++ {
			if err := ProcessEdgesDense(w, params); err != nil {
				return err
			}
		}
		return nil
	})
	for _, v := range perNode {
		visits += v
	}
	return visits, err
}

// firstHitSets marks a quarter of the vertices visited and a sixteenth
// frontier — a mid-traversal bottom-up BFS step.
func firstHitSets(n int) (visited, frontier *bitset.Bitmap) {
	visited, frontier = bitset.New(n), bitset.New(n)
	for v := 0; v < n; v++ {
		if v%4 == 1 {
			visited.Set(v)
		}
		if v%16 == 1 {
			frontier.Set(v)
		}
	}
	return visited, frontier
}

// BenchmarkDensePass times one dense pass on a warm 4-node cluster over
// the memory transport, in both modes: what a destination visit and an
// edge cost through the engine. visits/op and edges/op are the work the
// pass did (signals run, neighbors scanned), so ns/op divides into a
// per-visit and a per-edge price.
func BenchmarkDensePass(b *testing.B) {
	for _, scale := range []int{13, 15} {
		g := graph.RMAT(scale, 16, graph.Graph500Params(), 1)
		visited, frontier := firstHitSets(g.NumVertices())
		for _, mode := range []Mode{ModeSympleGraph, ModeGemini} {
			b.Run(fmt.Sprintf("scale%d/%v", scale, mode), func(b *testing.B) {
				c := mustCluster(b, g, Options{NumNodes: 4, Mode: mode, DepThreshold: DefaultDepThreshold, NumBuffers: 2})
				if _, err := firstHitPass(c, visited, frontier, 1); err != nil { // warm the slab and the scratch
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				visits, err := firstHitPass(c, visited, frontier, b.N)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
				b.ReportMetric(float64(c.Stats().Totals.EdgesTraversed)/float64(b.N), "edges/op")
			})
		}
	}
}

// TestDensePassAllocations bounds what a dense pass allocates on a warm
// 4-node SympleGraph cluster. The engine's scratch lives on the worker, so
// beyond the first pass of a run a pass allocates only its contexts, its
// params, the one-element vector each dependency frame is sent as, and
// the message headers of its closing collective: 6.5 objects per
// machine-pass measured at NumBuffers 1 (50.8 before the scratch moved),
// held here with 20 % headroom. A per-step bitmap, lane array, scan
// closure or buffer list creeping back costs 4 or more.
//
// NumBuffers 2 may add exactly one object per extra dependency frame it
// sends — that frame's vector. The vector is not parked in the worker's
// scratch: SendBufs transfers ownership of bufs and the caller must not
// touch them afterwards (DESIGN §5.2, enforced by sgvet's bufown), so
// reusing one across sends would break the contract the transports are
// free to rely on.
func TestDensePassAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := graph.RMAT(10, 16, graph.Graph500Params(), 1)
	visited, frontier := firstHitSets(g.NumVertices())
	// measure returns allocations and dependency frames per machine-pass.
	measure := func(buffers int) (allocs, frames float64) {
		c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 8, NumBuffers: buffers})
		run := func(passes int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := firstHitPass(c, visited, frontier, passes); err != nil {
					t.Fatal(err)
				}
			})
		}
		run(1) // warm the slab
		const extra = 20
		allocs = (run(1+extra) - run(1)) / (extra * 4)
		return allocs, float64(c.Stats().Totals.DependencyMessages) / 4 // Stats covers the last run: one pass
	}
	const bound = 6.5 * 1.2
	one, framesOne := measure(1)
	if one > bound {
		t.Fatalf("a dense pass allocates %.2f objects per machine, bound %.2f", one, bound)
	}
	two, framesTwo := measure(2)
	if framesTwo <= framesOne {
		t.Fatalf("NumBuffers 2 sends %.2f dependency frames per machine-pass, NumBuffers 1 %.2f: nothing was split", framesTwo, framesOne)
	}
	if limit := bound + framesTwo - framesOne; two > limit {
		t.Fatalf("at NumBuffers 2 a dense pass allocates %.2f objects per machine for %.2f extra frames, bound %.2f",
			two, framesTwo-framesOne, limit)
	}
	t.Logf("allocations per machine-pass: %.2f at NumBuffers 1, %.2f at 2 (%.2f extra dependency frames)", one, two, framesTwo-framesOne)
}
