package algorithms

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// BFSResult is the distributed BFS output plus per-direction iteration
// counts (the adaptive switch statistic).
type BFSResult struct {
	Parent []uint32 // None for the root and unreached vertices
	Depth  []int32  // -1 for unreached vertices
	// TopDownSteps/BottomUpSteps count iterations executed in each
	// direction by the adaptive switch.
	TopDownSteps, BottomUpSteps int
}

// Direction selects BFS's traversal strategy per iteration.
type Direction int

const (
	// DirectionAdaptive switches per iteration on the frontier's
	// out-edge count (Beamer's heuristic; the paper's evaluation
	// configuration).
	DirectionAdaptive Direction = iota
	// DirectionTopDown forces sparse push every iteration — no
	// loop-carried dependency, the conventional BFS.
	DirectionTopDown
	// DirectionBottomUp forces dense pull every iteration — maximal
	// exposure of the loop-carried dependency.
	DirectionBottomUp
)

// BFS runs direction-optimizing breadth-first search from root (paper
// §2.1/§7.1: "adaptive direction-switch BFS that chooses from both
// top-down and bottom-up algorithms in each iteration"). Bottom-up
// iterations carry the loop-carried dependency — an unvisited vertex
// stops scanning incoming neighbors at its first frontier hit — which
// SympleGraph mode enforces across machines.
func BFS(c core.Engine, root graph.VertexID) (*BFSResult, error) {
	return BFSWithDirection(c, root, DirectionAdaptive)
}

// BFSWithDirection is BFS with a forced traversal direction, for
// direction-ablation experiments.
func BFSWithDirection(c core.Engine, root graph.VertexID, dir Direction) (*BFSResult, error) {
	g := c.Graph()
	n := g.NumVertices()
	if int(root) >= n {
		return nil, fmt.Errorf("algorithms: BFS root %d out of range", root)
	}
	res := &BFSResult{}
	err := c.Run(func(w *core.Worker) error {
		// Per-node replicated state: what a real machine would hold.
		visited := bitset.New(n)
		frontier, next := bitset.New(n), bitset.New(n)
		parent := make([]uint32, n)
		depth := make([]int32, n)
		for i := range parent {
			parent[i] = None
			depth[i] = -1
		}
		visited.Set(int(root))
		frontier.Set(int(root))
		depth[root] = 0

		level := int32(0)
		topDown, bottomUp := 0, 0
		// Superstep checkpointing: on a recovery re-run, resume from the
		// last committed level instead of the root.
		ck := w.Checkpoint(&level, &topDown, &bottomUp, parent, depth, visited, frontier)
		iter, err := ck.Restore()
		if err != nil {
			return err
		}
		for ; ; iter++ {
			ck.Save(iter)
			level++
			next.ClearAll()
			adopt := func(dst graph.VertexID, u uint32) {
				if parent[dst] == None {
					parent[dst] = u
					depth[dst] = level
					next.Set(int(dst))
				}
			}
			var err error
			bottomUpNow := dir == DirectionBottomUp ||
				(dir == DirectionAdaptive && !pushFrom(g, frontier))
			if bottomUpNow {
				// Bottom-up (dense/pull): unvisited vertices look for a
				// frontier in-neighbor — Figure 1's UDF, instrumented.
				bottomUp++
				err = core.ProcessEdgesDense(w, core.DenseParams[uint32]{
					Except: visited,
					Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
						for _, u := range srcs {
							ctx.Edge()
							if frontier.Get(int(u)) {
								ctx.Emit(uint32(u))
								ctx.EmitDep()
								break
							}
						}
					},
					Slot:   adopt,
					Breaks: true,
				})
			} else {
				// Top-down (sparse/push).
				topDown++
				_, err = core.ProcessEdgesSparse(w, core.SparseParams[uint32]{
					Frontier: localFrontierList(w, frontier),
					Signal: func(ctx *core.SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
						for _, v := range dsts {
							ctx.Edge()
							if !visited.Get(int(v)) {
								ctx.EmitTo(v, uint32(src))
							}
						}
					},
					Slot: adopt,
				})
			}
			if err != nil {
				return err
			}
			if err := w.SyncBitmap(next); err != nil {
				return err
			}
			if !next.Any() {
				break
			}
			visited.Union(next)
			frontier.Swap(next)
		}

		// Publish results to node 0, whose copy becomes the return value.
		if err := core.Gather(w, parent); err != nil {
			return err
		}
		if err := core.Gather(w, depth); err != nil {
			return err
		}
		if w.ID() == 0 {
			res.Parent = parent
			res.Depth = depth
			res.TopDownSteps = topDown
			res.BottomUpSteps = bottomUp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
