// Foldwhile: the paper's two programmability routes side by side (§4).
//
// Route 1 — UDF analysis: write the signal as plain Go with a break; the
// analyzer detects the loop-carried dependency and inserts the
// dependency-communication primitives by source-to-source transformation
// (what `sgc instrument` does).
//
// Route 2 — the fold_while DSL: declare the loop-carried state machine
// explicitly; Compile generates the instrumented signal with no static
// analysis at all.
package main

import (
	"fmt"
	"log"

	"repro/internal/analyzer"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/graph"
)

const plainUDF = `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func bfsSignal(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.Emit(uint32(u))
			break
		}
	}
}
`

func main() {
	// Route 1: analyze and instrument the plain UDF.
	instrumented, report, err := analyzer.Instrument("udf.go", []byte(plainUDF))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== analyzer report ==")
	fmt.Print(report)
	fmt.Println("\n== instrumented source (paper Figure 5) ==")
	fmt.Println(string(instrumented))

	// Route 2: the same algorithm as a fold_while, executed for one
	// bottom-up step on a real cluster.
	g := graph.RMAT(12, 8, graph.Graph500Params(), 3)
	n := g.NumVertices()
	frontier := bitset.New(n)
	for v := 0; v < n; v += 2 {
		frontier.Set(v)
	}
	fold := dsl.FoldWhile[struct{}, uint32]{
		Init: func(graph.VertexID) struct{} { return struct{}{} },
		Step: func(s struct{}, _, u graph.VertexID, _ float32) (struct{}, bool) {
			return s, frontier.Get(int(u)) // exit condition = frontier hit
		},
		Emit: func(_ struct{}, _, u graph.VertexID) (uint32, bool) { return uint32(u), true },
	}

	cluster, err := core.NewCluster(g, core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, NumBuffers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	parents := make([]uint32, n)
	for i := range parents {
		parents[i] = ^uint32(0)
	}
	err = cluster.Run(func(w *core.Worker) error {
		params := dsl.Params(fold,
			func(dst graph.VertexID, u uint32) {
				if parents[dst] == ^uint32(0) {
					parents[dst] = u
				}
			}, nil)
		return core.ProcessEdgesDense(w, params)
	})
	if err != nil {
		log.Fatal(err)
	}
	found := 0
	for _, p := range parents {
		if p != ^uint32(0) {
			found++
		}
	}
	s := cluster.Stats().Totals
	fmt.Printf("== fold_while execution ==\n")
	fmt.Printf("one bottom-up step: %d vertices found frontier parents\n", found)
	fmt.Printf("edges traversed: %d of %d (loop-carried dependency pruned the rest)\n",
		s.EdgesTraversed, g.NumEdges())
}
