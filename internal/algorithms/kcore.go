package algorithms

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// KCoreResult is the distributed K-core output.
type KCoreResult struct {
	InCore []bool
	Rounds int
}

// KCore computes the K-core of a symmetric graph with the paper's
// iterative algorithm (Figure 3b): each round counts every active
// vertex's active neighbors — exiting at K, the loop-carried dependency —
// and removes vertices below K until a fixed point.
//
// The dependency message is control-only, as in the paper ("for these
// algorithms, control dependency communication is one bit per vertex"):
// a machine whose local partial count reaches K emits the skip bit, so
// machines later in the ring neither scan nor send; the master keeps any
// vertex whose summed partials reach K. Counts are not carried across
// machines — each machine counts its local neighbors from zero.
func KCore(c core.Engine, k int) (*KCoreResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("algorithms: KCore k = %d", k)
	}
	g := c.Graph()
	n := g.NumVertices()
	res := &KCoreResult{}
	err := c.Run(func(w *core.Worker) error {
		active, removed := bitset.New(n), bitset.New(n)
		active.Fill()
		lo, hi := w.MasterRange()
		counts := make([]int64, n) // master partial-count accumulator
		rounds := 0
		ck := w.Checkpoint(active, &rounds)
		if _, err := ck.Restore(); err != nil {
			return err
		}
		for {
			ck.Save(rounds)
			rounds++
			for v := lo; v < hi; v++ {
				counts[v] = 0
			}
			if err := core.ProcessEdgesDense(w, core.DenseParams[int64]{
				Active: active,
				Signal: func(ctx *core.DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					var cnt int64
					for _, u := range srcs {
						ctx.Edge()
						if active.Get(int(u)) {
							cnt++
							if cnt >= int64(k) {
								// Locally certain: later machines can
								// skip this vertex entirely.
								ctx.EmitDep()
								break
							}
						}
					}
					if cnt > 0 {
						ctx.Emit(cnt)
					}
				},
				Slot: func(dst graph.VertexID, partial int64) {
					counts[dst] += partial
				},
				Breaks: true,
			}); err != nil {
				return err
			}
			removed.ClearAll()
			w.ProcessVertices(func(v graph.VertexID) int64 {
				if active.Get(int(v)) && counts[v] < int64(k) {
					removed.SetAtomic(int(v)) // workers share words
				}
				return 0
			})
			if err := w.SyncBitmap(removed); err != nil {
				return err
			}
			if !removed.Any() {
				break
			}
			active.AndNot(removed)
		}

		out := make([]uint32, n)
		active.RangeSegment(lo, hi, func(v int) bool { out[v] = 1; return true })
		if err := core.Gather(w, out); err != nil {
			return err
		}
		if w.ID() == 0 {
			full := make([]bool, n)
			for v, x := range out {
				full[v] = x == 1
			}
			res.InCore = full
			res.Rounds = rounds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
