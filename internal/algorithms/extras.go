package algorithms

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// ConnectedComponents labels each vertex of a symmetric graph with the
// smallest vertex ID in its component, by push-style label propagation.
// It has no loop-carried dependency (min is fully commutative) and is
// included to show the substrate runs ordinary Gemini programs unchanged.
func ConnectedComponents(c core.Engine) ([]uint32, error) {
	g := c.Graph()
	n := g.NumVertices()
	out := make([]uint32, n)
	err := c.Run(func(w *core.Worker) error {
		label := make([]uint32, n) // masters authoritative
		for v := range label {
			label[v] = uint32(v)
		}
		lo, hi := w.MasterRange()
		changed, next := bitset.New(n), bitset.New(n)
		for v := lo; v < hi; v++ {
			changed.Set(v)
		}
		filter := core.NewMinFilter(w, math.MaxUint32)
		for {
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[uint32]{
				Codec:    core.U32Codec{},
				Frontier: localFrontierList(w, changed),
				Signal: func(ctx *core.SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
					l := label[src]
					for _, d := range dsts {
						ctx.Edge()
						if filter.ImprovesU32(d, l, label) {
							ctx.EmitTo(d, l)
						}
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
				break // no machine emitted anything: nothing changed anywhere
			}
			// changed is only read for local masters, so no sync is
			// needed — next already holds exactly our changed masters.
			changed, next = next, changed
			next.ClearAll()
		}
		if err := core.Gather(w, label); err != nil {
			return err
		}
		if w.ID() == 0 {
			copy(out, label)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InfDist marks unreachable vertices in SSSP output.
var InfDist = float32(math.Inf(1))

// SSSP computes single-source shortest paths over positive edge weights
// by distributed Bellman-Ford (push mode). Like ConnectedComponents it
// exercises the general framework rather than the dependency machinery.
func SSSP(c core.Engine, root graph.VertexID) ([]float32, error) {
	g := c.Graph()
	if !g.Weighted() {
		return nil, fmt.Errorf("algorithms: SSSP needs a weighted graph")
	}
	n := g.NumVertices()
	out := make([]float32, n)
	err := c.Run(func(w *core.Worker) error {
		dist := make([]float32, n) // masters authoritative
		for v := range dist {
			dist[v] = InfDist
		}
		changed, next := bitset.New(n), bitset.New(n)
		if w.Owns(root) {
			dist[root] = 0
			changed.Set(int(root))
		}
		// Not checkpointed: a restored run starts with an empty filter.
		filter := core.NewMinFilter(w, math.Float32bits(InfDist))
		// Superstep checkpointing: resume relaxation from the last
		// committed round after a recovery.
		ck := w.Checkpoint()
		iter := 0
		if it, blob, ok := ck.Restore(); ok {
			r := newSnapReader(blob)
			r.f32s(dist)
			r.bitmap(changed)
			if err := r.finish(); err != nil {
				return err
			}
			iter = it
		}
		for {
			if ck.Due(iter) {
				sw := newSnapWriter()
				sw.f32s(dist)
				sw.bitmap(changed)
				ck.Save(iter, sw.bytes())
			}
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[float32]{
				Codec:    core.F32Codec{},
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
			iter++
		}
		if err := core.Gather(w, dist); err != nil {
			return err
		}
		if w.ID() == 0 {
			copy(out, dist)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
