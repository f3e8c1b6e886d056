package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// PageRank runs power-iteration PageRank in dense pull mode for a fixed
// number of iterations with the given damping factor (dangling mass is
// not redistributed, as in Gemini's reference implementation). PageRank's
// signal has *no* loop-carried dependency — every neighbor contributes to
// the sum — so SympleGraph mode traverses Gemini's edges, but its dense
// passes still circulate all-zero skip frames that tracked ranges wait on
// (scale 16, four machines: ≈2.8 kB per pass at the default threshold,
// 25 kB tracking all). It is included (like CC and SSSP) to show the
// engine is a complete vertex-centric framework, and serves as the
// analyzer's negative example.
func PageRank(c core.Engine, iters int, damping float64) ([]float64, error) {
	if iters < 1 || damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("algorithms: PageRank iters=%d damping=%g", iters, damping)
	}
	g := c.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	out := make([]float64, n)
	err := c.Run(func(w *core.Worker) error {
		// Only masters' entries of either array are used until the final
		// gather: the signal reads share[u] = rank[u]/outdeg(u) of local
		// masters (sources are always local in pull mode), taken once
		// per iteration so an edge costs a load and an add, and the
		// slot then accumulates the next rank where the old one was.
		rank := make([]float64, n)
		share := make([]float64, n)
		base := (1 - damping) / float64(n)
		lo, hi := w.MasterRange()
		for v := lo; v < hi; v++ {
			rank[v] = 1 / float64(n)
		}
		ck := w.Checkpoint(rank)
		it, err := ck.Restore()
		if err != nil {
			return err
		}
		for ; it < iters; it++ {
			ck.Save(it)
			for v := lo; v < hi; v++ {
				if d := g.OutDegree(graph.VertexID(v)); d > 0 {
					share[v] = rank[v] / float64(d)
				}
				rank[v] = 0
			}
			if err := core.ProcessEdgesDense(w, core.DenseParams[float64]{
				Signal: func(ctx *core.DenseCtx[float64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					sum := 0.0
					for _, u := range srcs {
						ctx.Edge()
						sum += share[u] // set: an in-neighbour has an out-edge
					}
					ctx.Emit(sum)
				},
				Slot: func(dst graph.VertexID, contrib float64) {
					rank[dst] += contrib
				},
			}); err != nil {
				return err
			}
			for v := lo; v < hi; v++ {
				rank[v] = base + damping*rank[v]
			}
		}
		if err := core.Gather(w, rank); err != nil {
			return err
		}
		if w.ID() == 0 {
			copy(out, rank)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
