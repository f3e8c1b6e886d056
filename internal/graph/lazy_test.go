package graph_test

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestSSSPLeavesInSideUnscattered: building clusters over a synthesized-
// weights graph and running SSSP, which only pushes, never scatters its
// in-side weights; a pull pass that reads weights does.
func TestSSSPLeavesInSideUnscattered(t *testing.T) {
	w := graph.RandomWeights(graph.RMAT(10, 8, graph.Graph500Params(), 3), 7)
	for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
		c, err := core.NewCluster(w, core.Options{NumNodes: 4, Mode: mode, DepThreshold: core.DefaultDepThreshold})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		root, _ := graph.LargestOutDegreeVertex(w)
		if _, err := algorithms.SSSP(c, root); err != nil {
			t.Fatal(err)
		}
	}
	if graph.InSideHeld(w) {
		t.Fatal("building clusters and running SSSP scattered the in-side weights")
	}
	c, err := core.NewCluster(w, core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: core.DefaultDepThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := algorithms.Sample(c, 7, 2); err != nil {
		t.Fatal(err)
	}
	if !graph.InSideHeld(w) {
		t.Fatal("weighted sampling's pull passes ran without the in-side weights")
	}
}
