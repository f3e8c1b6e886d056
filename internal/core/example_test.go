package core_test

import (
	"fmt"
	"log"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// Example runs one bottom-up BFS step over a 4-machine simulated cluster
// with precise loop-carried dependency: the signal breaks at the first
// frontier neighbor, and the engine skips the destination's remaining
// neighbors on every other machine.
func Example() {
	g := graph.Star(64) // hub 0 connected to 63 spokes, both directions
	frontier := bitset.New(g.NumVertices())
	frontier.Fill() // everyone is in the frontier: the hub breaks at once

	cluster, err := core.NewCluster(g, core.Options{
		NumNodes: 4,
		Mode:     core.ModeSympleGraph,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	parent := make([]uint32, g.NumVertices())
	found := bitset.New(g.NumVertices())
	err = cluster.Run(func(w *core.Worker) error {
		return core.ProcessEdgesDense(w, core.DenseParams[uint32]{
			Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for _, u := range srcs {
					ctx.Edge()
					if frontier.Get(int(u)) {
						ctx.Emit(uint32(u))
						ctx.EmitDep() // skip dst's remaining neighbors cluster-wide
						break
					}
				}
			},
			Slot: func(dst graph.VertexID, u uint32) {
				parent[dst] = u
				found.SetAtomic(int(dst)) // machines share words
			},
			Breaks: true, // the signal calls ctx.EmitDep
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found parents for %d vertices\n", found.Count())
	s := cluster.Stats().Totals
	fmt.Printf("edges traversed: %d of %d\n", s.EdgesTraversed, g.NumEdges())
	// Output:
	// found parents for 64 vertices
	// edges traversed: 64 of 126
}
