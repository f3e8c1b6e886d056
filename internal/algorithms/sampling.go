package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
	"repro/internal/xrand"
)

// SampleResult holds weighted neighbor sampling output: Picks[r][v] is
// the in-neighbor vertex v drew in round r (None for vertices without
// incoming edges).
type SampleResult struct {
	Picks [][]uint32
	// ExactPicks counts picks made by cross-machine prefix walks (the
	// dependency-propagated path); the rest used the hierarchical
	// fallback.
	ExactPicks int64
}

// Sample draws, in each of `rounds` rounds, one incoming neighbor per
// vertex with probability proportional to the neighbor's deterministic
// vertex weight — the paper's graph-sampling kernel (Figure 3d). The
// loop-carried state is *data*: the running prefix sum of weights, which
// must cross a per-vertex threshold r_v.
//
// In SympleGraph mode, tracked vertices run the exact prefix walk across
// machines: a one-time setup pass carries the weight sum around the ring
// so every machine agrees bit-exactly on W_v, and each round's walk
// resumes from the carried prefix and breaks at the crossing — matching
// seq.SampleNeighbors under seq.RingOrder exactly. Untracked vertices —
// and all vertices in ModeGemini, where no dependency state exists — fall
// back to the parallel-decomposable hierarchical scheme: each machine
// scans all its local neighbors (no cross-machine pruning, the paper's
// redundancy), picks a local candidate, and the master combines
// candidates weighted by local mass. The hierarchical path sends a
// 12-byte message per (vertex, machine); the exact path sends one 4-byte
// pick but adds 8 bytes of dependency data per tracked vertex per step —
// the trade-off behind Table 6's sampling row, where total communication
// can exceed Gemini's.
func Sample(c core.Engine, seed uint64, rounds int) (*SampleResult, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("algorithms: Sample rounds = %d", rounds)
	}
	g := c.Graph()
	n := g.NumVertices()
	depOn := c.Options().Mode == core.ModeSympleGraph && c.Options().NumNodes > 1
	res := &SampleResult{}
	// The vertex weights are a replicated vertex property (Figure 3d):
	// tabulated once, read by every machine per scanned edge.
	wt := seq.VertexWeights(seed, n)
	err := c.Run(func(w *core.Worker) error {
		totalW := make([]float64, n)
		var exactPicks int64 // picks this machine's masters took from exact walks
		var kept []uint32    // node 0's picks, round r's at [r·n, (r+1)·n)
		if w.ID() == 0 {
			kept = make([]uint32, rounds*n)
		}
		// Checkpointed at round boundaries; a restored run skips the setup
		// pass, whose weight sums are in the snapshot.
		ck := w.Checkpoint(totalW, &exactPicks, kept)
		start, err := ck.Restore()
		if err != nil {
			return err
		}
		if depOn && start == 0 {
			// Setup: circulate each tracked vertex's weight sum around
			// the ring so W_v is the exact ring-ordered addition chain —
			// the same chain the per-round walks will follow, so the
			// crossing is guaranteed despite floating-point rounding.
			if err := core.ProcessEdgesDense(w, core.DenseParams[struct{}]{
				Signal: func(ctx *core.DenseCtx[struct{}], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					if !ctx.Tracked() {
						return
					}
					acc := ctx.DepFloat(0)
					for _, u := range srcs {
						ctx.Edge()
						acc += wt[u]
					}
					ctx.SetDepFloat(0, acc)
				},
				Slot: func(graph.VertexID, struct{}) {},
				Finalize: func(dst graph.VertexID, _ bool, data []float64) {
					totalW[dst] = data[0]
				},
				Lanes: 1,
			}); err != nil {
				return err
			}
			if err := core.AllGather(w, totalW); err != nil {
				return err
			}
		}

		lo, hi := w.MasterRange()
		hierMass := make([]float64, hi-lo) // running mass per master, at dst−lo
		hierSeq := make([]uint64, hi-lo)   // arrival index per master, at dst−lo
		var pick []uint32
		if w.ID() != 0 {
			pick = make([]uint32, n)
		}
		for round := start; round < rounds; round++ {
			ck.Save(round)
			// Slots write masters only and the gather overwrites the rest
			// at node 0, the one node that keeps a round's picks.
			if w.ID() == 0 {
				pick = kept[round*n : (round+1)*n : (round+1)*n]
			}
			for v := lo; v < hi; v++ {
				pick[v] = None
			}
			clear(hierMass)
			clear(hierSeq)
			// Both draws hash (seed, tag, round) once per round, leaving
			// one step per visit for r_v and two per combine.
			draw := seq.NewSampleDraw(seed, round)
			combine := xrand.Key(seed, 0x99, uint64(round))
			err := core.ProcessEdgesDense(w, core.DenseParams[core.WeightedPick]{
				Signal: func(ctx *core.DenseCtx[core.WeightedPick], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					if ctx.Tracked() {
						acc := ctx.DepFloat(0)
						r := draw.Threshold(dst, totalW[dst])
						for _, u := range srcs {
							ctx.Edge()
							acc += wt[u]
							if acc >= r {
								ctx.Emit(core.WeightedPick{Sum: -1, Cand: uint32(u)})
								ctx.EmitDep()
								break
							}
						}
						ctx.SetDepFloat(0, acc)
						return
					}
					// Hierarchical fallback: full local scan (the
					// unpruned redundancy of existing frameworks), local
					// prefix-walk pick, master-side weighted combine.
					var mass float64
					for _, u := range srcs {
						ctx.Edge()
						mass += wt[u]
					}
					cand := srcs[len(srcs)-1]
					if len(srcs) > 1 { // a lone neighbor is picked whatever r is: r ≤ mass
						r := draw.Threshold(dst, mass)
						acc := 0.0
						for _, u := range srcs {
							acc += wt[u]
							if acc >= r {
								cand = u
								// Machine-local pick over neighbors the mass
								// loop above already scanned in full: later
								// machines still need their own scans, so no
								// dependency is emitted.
								break //sgc:local
							}
						}
					}
					ctx.Emit(core.WeightedPick{Sum: mass, Cand: uint32(cand)})
				},
				Slot: func(dst graph.VertexID, msg core.WeightedPick) {
					if msg.Sum < 0 {
						// Exact pick from the dependency-propagated walk;
						// at most one arrives per vertex.
						pick[dst] = msg.Cand
						exactPicks++
						return
					}
					i := int(dst) - lo
					hierMass[i] += msg.Sum
					// The first arrival is taken whatever the draw says,
					// so only a later one draws.
					if pick[dst] == None || combine.Uniform01(uint64(dst), hierSeq[i]) < msg.Sum/hierMass[i] {
						pick[dst] = msg.Cand
					}
					hierSeq[i]++
				},
				Lanes: 1,
			})
			if err != nil {
				return err
			}
			if err := core.Gather(w, pick); err != nil {
				return err
			}
		}
		exact, err := w.AllReduceSum(exactPicks) // counted at the masters
		if err != nil {
			return err
		}
		if w.ID() == 0 {
			res.Picks = make([][]uint32, rounds)
			for r := range res.Picks {
				res.Picks[r] = kept[r*n : (r+1)*n : (r+1)*n]
			}
			res.ExactPicks = exact
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
