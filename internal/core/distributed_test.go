package core

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
)

// hosting returns the Options.Endpoints of a process that hosts only
// ep's machine in a cluster of n: ep at its own index, nil elsewhere.
func hosting(n int, ep comm.Endpoint) []comm.Endpoint {
	eps := make([]comm.Endpoint, n)
	eps[ep.ID()] = ep
	return eps
}

// TestDistributedNodeClusters runs the multi-process configuration
// faithfully in one test: each "process" builds its own Cluster with
// NewCluster over its own TCP endpoint (no shared engine state) and
// they jointly execute a dense pass.
func TestDistributedNodeClusters(t *testing.T) {
	const p = 3
	g := graph.RMAT(8, 8, graph.Graph500Params(), 31)
	tcps, err := comm.NewTCPClusterLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range tcps {
			e.Close()
		}
	}()

	counts := make([][]uint32, p) // per process, masters filled locally
	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := NewCluster(g, Options{
				NumNodes:   p,
				Mode:       ModeSympleGraph,
				NumBuffers: 2,
				Endpoints:  hosting(p, tcps[i]),
			})
			if err != nil {
				errs[i] = err
				return
			}
			local := make([]uint32, g.NumVertices())
			counts[i] = local
			errs[i] = c.Run(func(w *Worker) error {
				if w.ID() != i {
					t.Errorf("process %d hosts worker %d", i, w.ID())
				}
				err := ProcessEdgesDense(w, DenseParams[uint32]{
					Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
						for range srcs {
							ctx.Edge()
						}
						ctx.Emit(uint32(len(srcs)))
					},
					Slot: func(dst graph.VertexID, msg uint32) {
						local[dst] += msg
					},
				})
				if err != nil {
					return err
				}
				// Gather results at the node-0 process.
				return Gather(w, local)
			})
			if errs[i] == nil {
				s := c.Stats().Totals
				if s.EdgesTraversed == 0 {
					t.Errorf("process %d recorded no work", i)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := counts[0][v], uint32(g.InDegree(graph.VertexID(v))); got != want {
			t.Fatalf("vertex %d: %d, want %d", v, got, want)
		}
	}
}

func TestDistributedNodeValidation(t *testing.T) {
	g := graph.Ring(64)
	tcps, err := comm.NewTCPClusterLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range tcps {
			e.Close()
		}
	}()
	if _, err := NewCluster(g, Options{NumNodes: 3, Endpoints: hosting(3, tcps[0])}); err == nil {
		t.Fatal("mismatched cluster size accepted")
	}
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: make([]comm.Endpoint, 2)}); err == nil {
		t.Fatal("a cluster hosting no machine accepted")
	}
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: []comm.Endpoint{nil, tcps[0]}}); err == nil {
		t.Fatal("node 0's endpoint accepted at index 1")
	}
}

// TestWaitInstrumentation: under a latency link, dependency and update
// wait counters must be populated in SympleGraph mode.
func TestWaitInstrumentation(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 32)
	c := mustCluster(t, g, Options{
		NumNodes: 3,
		Mode:     ModeSympleGraph,
		Link:     comm.DefaultLink(),
	})
	err := c.Run(func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for range srcs {
					ctx.Edge()
				}
				ctx.Emit(1)
			},
			Slot: func(graph.VertexID, uint32) {},
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats().Totals
	if s.DependencyWait == 0 {
		t.Fatalf("no dependency wait recorded: %+v", s)
	}
	if s.UpdateWait == 0 {
		t.Fatalf("no update wait recorded: %+v", s)
	}
}
