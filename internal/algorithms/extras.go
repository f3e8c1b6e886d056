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
		ck := w.Checkpoint(label, changed)
		iter, err := ck.Restore()
		if err != nil {
			return err
		}
		for ; ; iter++ {
			ck.Save(iter)
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[uint32]{
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
			changed.Swap(next)
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

// SSSP computes single-source shortest paths over non-negative edge
// weights by bucketed push (Meyer–Sanders Δ-stepping without the
// light/heavy edge split). Like ConnectedComponents it exercises the
// general framework rather than the dependency machinery.
//
// A pass pushes only the changed masters whose distance is below the
// bound T; the others wait. Each machine's frames carry its least — the
// minimum over its waiting distances and the candidates it emitted — so
// after the pass every machine holds the same global minimum L and
// applies the same rule: once L ≥ T, T moves to the first bucket boundary
// above L; once nobody emitted and L is +Inf, the run is over. No hop is
// added. The float32 result is the minimum over paths of the left-folded
// sums whatever the relaxation order, so it is bit-identical to the
// frontier Bellman-Ford's; only the scanned edges fall, from several |E|
// towards Dijkstra's one. Δ, the bucket width, is the graph's: see
// bucketWidth.
func SSSP(c core.Engine, root graph.VertexID) ([]float32, error) {
	g := c.Graph()
	if !g.Weighted() {
		return nil, fmt.Errorf("algorithms: SSSP needs a weighted graph")
	}
	return ssspBuckets(c, root, bucketWidth(g))
}

// bucketWidth is Δ for g: the largest edge weight over the mean
// out-degree, Meyer–Sanders' Θ(1/d) for weights in (0, 1]. A bucket then
// holds about one hop's worth of distance from an average vertex, which
// keeps re-relaxation low without a pass per vertex. A graph without a
// positive weight gets +Inf: one bucket, which is Bellman-Ford.
func bucketWidth(g *graph.Graph) float64 {
	delta := float64(g.MaxWeight()) * float64(g.NumVertices()) / float64(g.NumEdges())
	if !(delta > 0) || math.IsInf(delta, 1) {
		return math.Inf(1)
	}
	return delta
}

// nextBound returns the first bucket boundary k·delta strictly above
// least. floor(least/delta)+1 alone can land on or below least once the
// division and the product round — a bound that never passes least would
// repeat with nothing to push — so it steps down, then up, until the
// boundary is the first one that clears least.
func nextBound(least, delta float64) float64 {
	k := math.Floor(least / delta)
	for k*delta > least {
		k--
	}
	for k*delta <= least {
		k++
	}
	return k * delta
}

// ssspBuckets is SSSP with the bucket width given: +Inf makes every
// changed master push every pass, which is the frontier Bellman-Ford.
func ssspBuckets(c core.Engine, root graph.VertexID, delta float64) ([]float32, error) {
	n := c.Graph().NumVertices()
	out := make([]float32, n)
	err := c.Run(func(w *core.Worker) error {
		dist := make([]float32, n) // masters authoritative
		for v := range dist {
			dist[v] = InfDist
		}
		// changed holds the masters whose distance fell since they last
		// pushed: those below the bound push this pass, the rest wait.
		changed := bitset.New(n)
		if w.Owns(root) {
			dist[root] = 0
			changed.Set(int(root))
		}
		bound := delta
		// Not checkpointed: a restored run starts with an empty filter, so
		// its least can be lower, which costs at most empty passes.
		filter := core.NewMinFilter(w, math.Float32bits(InfDist))
		// Superstep checkpointing: resume relaxation, bound included, from
		// the last committed round after a recovery.
		ck := w.Checkpoint(dist, changed, &bound)
		iter, err := ck.Restore()
		if err != nil {
			return err
		}
		lo, hi := w.MasterRange()
		var frontier []graph.VertexID
		for ; ; iter++ {
			ck.Save(iter)
			frontier = frontier[:0]
			least := math.Inf(1) // over the masters that wait
			changed.RangeSegment(lo, hi, func(v int) bool {
				if d := float64(dist[v]); d < bound {
					frontier = append(frontier, graph.VertexID(v))
				} else if d < least {
					least = d
				}
				return true
			})
			for _, v := range frontier {
				changed.Clear(int(v))
			}
			emitted, err := core.ProcessEdgesSparse(w, core.SparseParams[float32]{
				Frontier: frontier,
				Signal: func(ctx *core.SparseCtx[float32], src graph.VertexID, dsts []graph.VertexID, ws []float32) {
					for i, d := range dsts {
						ctx.Edge()
						if cand := dist[src] + ws[i]; filter.ImprovesF32(d, cand, dist) {
							ctx.EmitTo(d, cand)
							ctx.Least(float64(cand))
						}
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
				break // nothing emitted and nothing waits, anywhere
			}
			if least >= bound {
				bound = nextBound(least, delta)
			}
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
