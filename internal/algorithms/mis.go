package algorithms

import (
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
)

// MISResult is the distributed MIS output.
type MISResult struct {
	InMIS  []bool
	Rounds int
}

// MIS computes a maximal independent set with the paper's color-based
// iterative algorithm (Figure 3a) on a symmetric graph: each round,
// active vertices whose color is smaller than every active neighbor's
// color join the set; members and their neighbors then deactivate. Both
// phases carry the loop-carried dependency — the scan breaks at the first
// smaller-colored active neighbor (veto) and at the first new-member
// neighbor (cover).
//
// Colors are the deterministic permutation seq.MISColors(n, seed), so the
// result equals seq.GreedyMIS for every mode and machine count.
func MIS(c core.Engine, seed uint64) (*MISResult, error) {
	g := c.Graph()
	n := g.NumVertices()
	colors := seq.MISColors(n, seed)
	res := &MISResult{}
	err := c.Run(func(w *core.Worker) error {
		active := bitset.New(n)
		active.Fill()
		vetoed, newMIS, covered := bitset.New(n), bitset.New(n), bitset.New(n)
		member := bitset.New(n) // masters authoritative
		rounds := 0
		ck := w.Checkpoint(active, member, &rounds)
		if _, err := ck.Restore(); err != nil {
			return err
		}
		for active.Any() {
			ck.Save(rounds)
			rounds++
			// Phase 1: veto pass. A vertex is vetoed when some active
			// neighbor has a smaller color; un-vetoed active vertices
			// join the MIS.
			vetoed.ClearAll()
			if err := core.ProcessEdgesDense(w, core.DenseParams[struct{}]{
				Active: active,
				Signal: func(ctx *core.DenseCtx[struct{}], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for _, u := range srcs {
						ctx.Edge()
						if active.Get(int(u)) && colors[u] < colors[dst] {
							ctx.Emit(struct{}{})
							ctx.EmitDep()
							break
						}
					}
				},
				Slot: func(dst graph.VertexID, _ struct{}) {
					vetoed.Set(int(dst))
				},
				Breaks: true,
			}); err != nil {
				return err
			}
			newMIS.ClearAll()
			lo, hi := w.MasterRange()
			newMIS.OrAndNotSegment(active, vetoed, lo, hi)
			member.OrAndNotSegment(active, vetoed, lo, hi)
			if err := w.SyncBitmap(newMIS); err != nil {
				return err
			}
			if !newMIS.Any() {
				break
			}
			// Phase 2: cover pass. Active vertices adjacent to a new
			// member deactivate (first member neighbor suffices): a pull
			// over the active vertices, or a push from the new members
			// when those are few (pushFrom). Covering is idempotent, so
			// the two directions cover the same set.
			covered.ClearAll()
			cover := func(dst graph.VertexID, _ struct{}) { covered.Set(int(dst)) }
			var err error
			if pushFrom(g, newMIS) {
				_, err = core.ProcessEdgesSparse(w, core.SparseParams[struct{}]{
					Frontier: localFrontierList(w, newMIS),
					Signal: func(ctx *core.SparseCtx[struct{}], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
						for _, v := range dsts {
							ctx.Edge()
							if active.Get(int(v)) && !newMIS.Get(int(v)) {
								ctx.EmitTo(v, struct{}{})
							}
						}
					},
					Slot: cover,
				})
			} else {
				err = core.ProcessEdgesDense(w, core.DenseParams[struct{}]{
					Active: active,
					Except: newMIS,
					Signal: func(ctx *core.DenseCtx[struct{}], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
						for _, u := range srcs {
							ctx.Edge()
							if newMIS.Get(int(u)) {
								ctx.Emit(struct{}{})
								ctx.EmitDep()
								break
							}
						}
					},
					Slot:   cover,
					Breaks: true,
				})
			}
			if err != nil {
				return err
			}
			if err := w.SyncBitmap(covered); err != nil {
				return err
			}
			active.AndNot(newMIS)
			active.AndNot(covered)
		}

		// Publish membership.
		out := make([]uint32, n)
		lo, hi := w.MasterRange()
		member.RangeSegment(lo, hi, func(v int) bool { out[v] = 1; return true })
		if err := core.Gather(w, out); err != nil {
			return err
		}
		if w.ID() == 0 {
			full := make([]bool, n)
			for v, x := range out {
				full[v] = x == 1
			}
			res.InMIS = full
			res.Rounds = rounds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
