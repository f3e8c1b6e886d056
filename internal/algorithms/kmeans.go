package algorithms

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
)

// KMeans runs distributed graph K-means (paper Figure 3c, §2.1):
// `centers` clusters, `iters` outer iterations of assign / measure /
// re-center. The assignment phase is BFS-like adoption — an unassigned
// vertex adopts the cluster of its first assigned neighbor, the
// loop-carried dependency — in rounds that pull, or push from the last
// round's newly assigned vertices when those are few (pushFrom). An
// unassigned vertex's assigned in-neighbors are exactly that frontier,
// and a push applies its candidates in ring order, so both directions
// adopt the same cluster. Results match seq.KMeans under
// seq.RingOrder(c.Partition()) exactly.
func KMeans(c core.Engine, centers, iters int, seed uint64) (*seq.KMeansResult, error) {
	if centers < 1 || iters < 1 {
		return nil, fmt.Errorf("algorithms: KMeans centers=%d iters=%d", centers, iters)
	}
	g := c.Graph()
	n := g.NumVertices()
	if centers > n {
		return nil, fmt.Errorf("algorithms: %d centers for %d vertices", centers, n)
	}
	res := &seq.KMeansResult{}
	// Initial centers: one deterministic draw, read by every node.
	initial := seq.KMeansCenters(n, centers, seed)
	err := c.Run(func(w *core.Worker) error {
		cs := slices.Clone(initial)
		cluster := make([]uint32, n) // masters authoritative
		dist := make([]int32, n)
		assigned, frontier, next := bitset.New(n), bitset.New(n), bitset.New(n)
		distSums := make([]int64, iters)
		totalRounds := 0
		// Checkpointed at outer-iteration boundaries, where the centers,
		// the sums so far and the round count are the whole state.
		ck := w.Checkpoint(cs, distSums, &totalRounds)
		start, err := ck.Restore()
		if err != nil {
			return err
		}
		for iter := start; iter < iters; iter++ {
			ck.Save(iter)
			for v := range cluster {
				cluster[v] = seq.NoCluster
				dist[v] = -1
			}
			assigned.ClearAll()
			frontier.ClearAll()
			for cid, cv := range cs {
				cluster[cv] = uint32(cid)
				dist[cv] = 0
				assigned.Set(int(cv))
				frontier.Set(int(cv))
			}
			for round := int32(1); ; round++ {
				totalRounds++
				next.ClearAll()
				adopt := func(dst graph.VertexID, cid uint32) {
					if cluster[dst] == seq.NoCluster {
						cluster[dst] = cid
						dist[dst] = round
						next.Set(int(dst))
					}
				}
				var err error
				if pushFrom(g, frontier) {
					_, err = core.ProcessEdgesSparse(w, core.SparseParams[uint32]{
						Frontier: localFrontierList(w, frontier),
						Signal: func(ctx *core.SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
							for _, v := range dsts {
								ctx.Edge()
								if !assigned.Get(int(v)) {
									ctx.EmitTo(v, cluster[src])
								}
							}
						},
						Slot: adopt,
					})
				} else {
					err = core.ProcessEdgesDense(w, core.DenseParams[uint32]{
						Except: assigned,
						Signal: func(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
							for _, u := range srcs {
								ctx.Edge()
								if assigned.Get(int(u)) {
									ctx.Emit(cluster[u])
									ctx.EmitDep()
									break
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
				assigned.Union(next)
				frontier, next = next, frontier
			}
			// Step 3: total distance.
			sum, err := w.AllReduceSum(w.ProcessVertices(func(v graph.VertexID) int64 {
				if dist[v] > 0 {
					return int64(dist[v])
				}
				return 0
			}))
			if err != nil {
				return err
			}
			distSums[iter] = sum
			if iter == iters-1 {
				break
			}
			// Step 4: re-center — global argmin of a deterministic hash
			// per cluster, combined from per-node local minima.
			cs2, err := recenterDistributed(w, cluster, cs, seed, iter)
			if err != nil {
				return err
			}
			copy(cs, cs2)
		}

		if err := core.Gather(w, cluster); err != nil {
			return err
		}
		if err := core.Gather(w, dist); err != nil {
			return err
		}
		if w.ID() == 0 {
			res.Cluster = cluster
			res.Dist = dist
			res.Centers = cs
			res.DistSums = distSums
			res.Rounds = totalRounds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// recenterDistributed computes seq.Recenter's result without shared
// memory: each node finds, per cluster, the member of its master range
// minimizing the deterministic hash; the per-cluster (key, vertex) pairs
// are all-gathered and combined identically everywhere.
func recenterDistributed(w *core.Worker, cluster []uint32, prev []graph.VertexID, seed uint64, iter int) ([]graph.VertexID, error) {
	k := len(prev)
	bestKey := make([]float64, k)
	bestV := make([]graph.VertexID, k)
	for cid := range bestKey {
		bestKey[cid] = math.Inf(1)
		bestV[cid] = prev[cid]
	}
	lo, hi := w.MasterRange()
	draw := seq.RecenterKey(seed, iter)
	for v := lo; v < hi; v++ {
		cid := cluster[v]
		if cid == seq.NoCluster {
			continue
		}
		key := draw.Uniform01(uint64(v))
		if key < bestKey[cid] {
			bestKey[cid] = key
			bestV[cid] = graph.VertexID(v)
		}
	}
	blob := make([]byte, k*12)
	for cid := 0; cid < k; cid++ {
		binary.LittleEndian.PutUint64(blob[cid*12:], math.Float64bits(bestKey[cid]))
		binary.LittleEndian.PutUint32(blob[cid*12+8:], uint32(bestV[cid]))
	}
	// Fold every peer's minima into ours; ties go to the lower vertex,
	// as the oracle's ascending scan breaks them.
	err := w.AllToAll(comm.KindControl, func(int) []byte { return blob }, func(_ int, payload []byte) error {
		if len(payload) != k*12 {
			return fmt.Errorf("algorithms: recenter blob is %d bytes, want %d", len(payload), k*12)
		}
		for cid := 0; cid < k; cid++ {
			key := math.Float64frombits(binary.LittleEndian.Uint64(payload[cid*12:]))
			v := graph.VertexID(binary.LittleEndian.Uint32(payload[cid*12+8:]))
			if key < bestKey[cid] || (key == bestKey[cid] && v < bestV[cid]) {
				bestKey[cid] = key
				bestV[cid] = v
			}
		}
		return nil
	})
	return bestV, err
}
