package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestMoreNodesThanVertices: machines with empty partitions must
// participate in the schedule without deadlock or wrong results.
func TestMoreNodesThanVertices(t *testing.T) {
	g := graph.Ring(5)
	for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
		c := mustCluster(t, g, Options{NumNodes: 8, Mode: mode, NumBuffers: 2})
		counts := make([]uint32, 5)
		err := c.Run(func(w *Worker) error {
			err := ProcessEdgesDense(w, DenseParams[uint32]{
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for range srcs {
						ctx.Edge()
					}
					ctx.Emit(uint32(len(srcs)))
				},
				Slot: func(dst graph.VertexID, msg uint32) {
					counts[dst] += msg
				},
			})
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for v := 0; v < 5; v++ {
			if counts[v] != 1 {
				t.Fatalf("%v: vertex %d count %d", mode, v, counts[v])
			}
		}
	}
}

// TestEmptyGraphCluster: a zero-vertex graph must run passes cleanly.
func TestEmptyGraphCluster(t *testing.T) {
	g := graph.MustFromEdges(0, nil, graph.BuildOptions{})
	c := mustCluster(t, g, Options{NumNodes: 3, Mode: ModeSympleGraph})
	err := c.Run(func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(*DenseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {
				t.Error("signal ran on empty graph")
			},
			Slot: func(graph.VertexID, uint32) {},
		})
		if err != nil {
			return err
		}
		emitted, err := ProcessEdgesSparse(w, SparseParams[uint32]{
			Signal: func(*SparseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {},
			Slot:   func(graph.VertexID, uint32) {},
		})
		if emitted != 0 {
			t.Errorf("emitted %d", emitted)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIsolatedVerticesOnlyGraph: vertices without edges produce no
// signals, no updates, and Finalize still covers tracked masters.
func TestIsolatedVerticesOnlyGraph(t *testing.T) {
	g := graph.MustFromEdges(200, nil, graph.BuildOptions{})
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 0})
	finalized := make([]bool, 200)
	err := c.Run(func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[struct{}]{
			Signal: func(*DenseCtx[struct{}], graph.VertexID, []graph.VertexID, []float32) {
				t.Error("signal ran without edges")
			},
			Slot: func(graph.VertexID, struct{}) {},
			Finalize: func(dst graph.VertexID, skip bool, data []float64) {
				if skip || data[0] != 0 {
					t.Errorf("vertex %d has dependency state without edges", dst)
				}
				finalized[dst] = true
			},
			Lanes: 1,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range finalized {
		if !ok {
			t.Fatalf("vertex %d not finalized", v)
		}
	}
}

// TestManyWorkersFewVertices: more workers than vertices per node.
func TestManyWorkersFewVertices(t *testing.T) {
	g := graph.Complete(6)
	c := mustCluster(t, g, Options{NumNodes: 2, Mode: ModeSympleGraph, Workers: 16})
	var slotted atomic.Int64
	err := c.Run(func(w *Worker) error {
		return ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for range srcs {
					ctx.Edge()
				}
				ctx.Emit(1)
			},
			Slot: func(graph.VertexID, uint32) { slotted.Add(1) },
		})
	})
	total := int(slotted.Load())
	if err != nil {
		t.Fatal(err)
	}
	// Each vertex receives one message per machine holding ≥1 of its
	// in-edges. (With 64-aligned chunking a 6-vertex graph lands on one
	// machine, so this is 6 — the assertion derives it rather than
	// assuming.)
	want := 0
	for v := 0; v < 6; v++ {
		owners := map[int]bool{}
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			owners[c.Partition().Owner(u)] = true
		}
		want += len(owners)
	}
	if total != want {
		t.Fatalf("reduced %d, want %d", total, want)
	}
}

// TestRepeatedRunsReuseCluster: tag bookkeeping must reset per Run so a
// cluster can execute many programs.
func TestRepeatedRunsReuseCluster(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 2)
	c := mustCluster(t, g, Options{NumNodes: 3, Mode: ModeSympleGraph, NumBuffers: 2})
	for round := 0; round < 5; round++ {
		counts := make([]uint32, g.NumVertices())
		err := c.Run(func(w *Worker) error {
			err := ProcessEdgesDense(w, DenseParams[uint32]{
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for range srcs {
						ctx.Edge()
					}
					ctx.Emit(uint32(len(srcs)))
				},
				Slot: func(dst graph.VertexID, msg uint32) {
					counts[dst] += msg
				},
			})
			return err
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if counts[v] != uint32(g.InDegree(graph.VertexID(v))) {
				t.Fatalf("round %d: vertex %d wrong", round, v)
			}
		}
	}
}

// TestSingleNodeAllOptionCombos: p=1 must work under every option since
// dependency propagation silently disables.
func TestSingleNodeAllOptionCombos(t *testing.T) {
	g := graph.Star(100)
	for _, buffers := range []int{1, 4} {
		for _, thr := range []int{0, 32} {
			t.Run(fmt.Sprintf("B=%d/thr=%d", buffers, thr), func(t *testing.T) {
				c := mustCluster(t, g, Options{
					NumNodes: 1, Mode: ModeSympleGraph, NumBuffers: buffers, DepThreshold: thr,
				})
				slotted := 0
				err := c.Run(func(w *Worker) error {
					return ProcessEdgesDense(w, DenseParams[uint32]{
						Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
							if ctx.Tracked() {
								t.Error("Tracked() true on a single machine")
							}
							ctx.Emit(1)
						},
						Slot: func(graph.VertexID, uint32) { slotted++ },
					})
				})
				if slotted != 100 { // hub + 99 spokes have in-edges
					t.Errorf("slotted %d updates", slotted)
				}
				if err != nil {
					t.Fatal(err)
				}
				if c.Stats().Totals.TotalBytes() != 0 {
					t.Fatal("single machine sent bytes")
				}
			})
		}
	}
}
