package gluon

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
)

// Inf marks unreached/unset entries in gluon label arrays.
const Inf = ^uint32(0)

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func addU32(a, b uint32) uint32 { return a + b }

// BFS computes hop distances from root with push-style rounds and
// reduce+broadcast label sync. No direction adaptivity, no dependency
// pruning — the baseline profile the paper measures for D-Galois (with
// adaptive switch treated as an orthogonal fairness add-on).
func BFS(e *Engine, root graph.VertexID) ([]uint32, error) {
	n := e.Graph().NumVertices()
	out := make([]uint32, n)
	err := e.Run(func(w *core.Worker) error {
		depth := make([]uint32, n)
		for i := range depth {
			depth[i] = Inf
		}
		depth[root] = 0
		touched := bitset.New(n)
		if w.Owns(root) {
			touched.Set(int(root))
		}
		if _, err := e.syncReduceBroadcastU32(w, depth, touched, minU32); err != nil {
			return err
		}
		local := e.local[w.ID()]
		for round := uint32(1); ; round++ {
			var edges int64
			for i, u := range local.Srcs {
				if depth[u] != round-1 {
					continue
				}
				ds := local.Dests(i)
				edges += int64(len(ds))
				for _, v := range ds {
					if round < depth[v] {
						depth[v] = round
						touched.Set(int(v))
					}
				}
			}
			w.AddEdges(edges)
			changed, err := e.syncReduceBroadcastU32(w, depth, touched, minU32)
			if err != nil {
				return err
			}
			if changed == 0 {
				break
			}
		}
		if w.ID() == 0 {
			copy(out, depth)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MIS computes the color-based maximal independent set (same rule as
// algorithms.MIS and seq.GreedyMIS) under gluon synchronization: veto
// flags and membership are full-array reduce+broadcast fields. The graph
// must be symmetric.
func MIS(e *Engine, seedVal uint64) ([]bool, error) {
	n := e.Graph().NumVertices()
	colors := seq.MISColors(n, seedVal)
	out := make([]bool, n)
	err := e.Run(func(w *core.Worker) error {
		active := make([]uint32, n)
		for i := range active {
			active[i] = 1
		}
		inMIS := make([]uint32, n)
		touched := bitset.New(n)
		lo, hi := w.MasterRange()
		local := e.local[w.ID()]
		for {
			// Veto pass over local edges (u → v proxies).
			veto := make([]uint32, n)
			var edges int64
			for i, u := range local.Srcs {
				if active[u] == 0 {
					continue
				}
				ds := local.Dests(i)
				edges += int64(len(ds))
				for _, v := range ds {
					if active[v] != 0 && colors[u] < colors[v] && veto[v] == 0 {
						veto[v] = 1
						touched.Set(int(v))
					}
				}
			}
			w.AddEdges(edges)
			if _, err := e.syncReduceBroadcastU32(w, veto, touched, maxU32); err != nil {
				return err
			}
			// Join: unvetoed active masters enter the set.
			joinedLocal := int64(0)
			for v := lo; v < hi; v++ {
				if active[v] != 0 && veto[v] == 0 {
					inMIS[v] = 1
					touched.Set(v)
					joinedLocal++
				}
			}
			if _, err := e.syncReduceBroadcastU32(w, inMIS, touched, maxU32); err != nil {
				return err
			}
			total, err := w.AllReduceSum(joinedLocal)
			if err != nil {
				return err
			}
			if total == 0 {
				break
			}
			// Cover pass: members deactivate (masters), and their
			// neighbors deactivate via the local edges.
			for v := lo; v < hi; v++ {
				if inMIS[v] != 0 && active[v] != 0 {
					active[v] = 0
					touched.Set(v)
				}
			}
			edges = 0
			for i, u := range local.Srcs {
				if inMIS[u] == 0 {
					continue
				}
				ds := local.Dests(i)
				edges += int64(len(ds))
				for _, v := range ds {
					if active[v] != 0 {
						active[v] = 0
						touched.Set(int(v))
					}
				}
			}
			w.AddEdges(edges)
			if _, err := e.syncReduceBroadcastU32(w, active, touched, minU32); err != nil {
				return err
			}
			remaining := int64(0)
			for v := lo; v < hi; v++ {
				if active[v] != 0 {
					remaining++
				}
			}
			left, err := w.AllReduceSum(remaining)
			if err != nil {
				return err
			}
			if left == 0 {
				break
			}
		}
		if w.ID() == 0 {
			for v := range out {
				out[v] = inMIS[v] == 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KCore computes the K-core with full-scan counting rounds and summed
// reductions — no count-to-K break across machines. The graph must be
// symmetric.
func KCore(e *Engine, k int) ([]bool, error) {
	if k < 1 {
		return nil, fmt.Errorf("gluon: KCore k = %d", k)
	}
	n := e.Graph().NumVertices()
	out := make([]bool, n)
	err := e.Run(func(w *core.Worker) error {
		active := make([]uint32, n)
		for i := range active {
			active[i] = 1
		}
		touched := bitset.New(n)
		lo, hi := w.MasterRange()
		local := e.local[w.ID()]
		for {
			count := make([]uint32, n)
			var edges int64
			for i, u := range local.Srcs {
				if active[u] == 0 {
					continue
				}
				ds := local.Dests(i)
				edges += int64(len(ds))
				for _, v := range ds {
					if active[v] != 0 {
						count[v]++
						touched.Set(int(v))
					}
				}
			}
			w.AddEdges(edges)
			if _, err := e.syncReduceBroadcastU32(w, count, touched, addU32); err != nil {
				return err
			}
			removedLocal := int64(0)
			for v := lo; v < hi; v++ {
				if active[v] != 0 && count[v] < uint32(k) {
					active[v] = 0
					touched.Set(v)
					removedLocal++
				}
			}
			if _, err := e.syncReduceBroadcastU32(w, active, touched, minU32); err != nil {
				return err
			}
			removed, err := w.AllReduceSum(removedLocal)
			if err != nil {
				return err
			}
			if removed == 0 {
				break
			}
		}
		if w.ID() == 0 {
			for v := range out {
				out[v] = active[v] == 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KMeans runs the assignment phase of graph K-means (the measured kernel)
// under gluon sync: candidate clusters propagate with min-combine, so the
// tie-break is "smallest cluster ID" rather than ring order — a valid
// assignment with the same per-iteration BFS levels. Centers start, and
// move, by the rules algorithms.KMeans and the oracle share; the cluster
// array is fully replicated under gluon sync, so every machine re-centers
// locally.
func KMeans(e *Engine, centers, iters int, seedVal uint64) (*seq.KMeansResult, error) {
	if centers < 1 || iters < 1 {
		return nil, fmt.Errorf("gluon: KMeans centers=%d iters=%d", centers, iters)
	}
	n := e.Graph().NumVertices()
	if centers > n {
		return nil, fmt.Errorf("gluon: %d centers for %d vertices", centers, n)
	}
	res := &seq.KMeansResult{}
	err := e.Run(func(w *core.Worker) error {
		cs := seq.KMeansCenters(n, centers, seedVal)
		cluster := make([]uint32, n)
		dist := make([]int32, n)
		touched := bitset.New(n)
		lo, hi := w.MasterRange()
		local := e.local[w.ID()]
		var distSums []int64
		rounds := 0
		for iter := 0; iter < iters; iter++ {
			for v := range cluster {
				cluster[v] = Inf
				dist[v] = -1
			}
			for cid, cv := range cs {
				cluster[cv] = uint32(cid)
				dist[cv] = 0
			}
			for round := int32(1); ; round++ {
				rounds++
				cand := make([]uint32, n)
				for i := range cand {
					cand[i] = Inf
				}
				var edges int64
				for i, u := range local.Srcs {
					if dist[u] < 0 || dist[u] >= round {
						continue
					}
					ds := local.Dests(i)
					edges += int64(len(ds))
					for _, v := range ds {
						if cluster[v] == Inf && cluster[u] < cand[v] {
							cand[v] = cluster[u]
							touched.Set(int(v))
						}
					}
				}
				w.AddEdges(edges)
				if _, err := e.syncReduceBroadcastU32(w, cand, touched, minU32); err != nil {
					return err
				}
				adoptedLocal := int64(0)
				for v := lo; v < hi; v++ {
					if cluster[v] == Inf && cand[v] != Inf {
						cluster[v] = cand[v]
						dist[v] = round
						touched.Set(v)
						adoptedLocal++
					}
				}
				if _, err := e.syncReduceBroadcastU32(w, cluster, touched, minU32); err != nil {
					return err
				}
				// Distances are derivable (assignment round), broadcast
				// via recompute: proxies learn dist from round number.
				for v := 0; v < n; v++ {
					if cluster[v] != Inf && dist[v] < 0 {
						dist[v] = round
					}
				}
				adopted, err := w.AllReduceSum(adoptedLocal)
				if err != nil {
					return err
				}
				if adopted == 0 {
					break
				}
			}
			sumLocal := int64(0)
			for v := lo; v < hi; v++ {
				if dist[v] > 0 {
					sumLocal += int64(dist[v])
				}
			}
			sum, err := w.AllReduceSum(sumLocal)
			if err != nil {
				return err
			}
			distSums = append(distSums, sum)
			if iter == iters-1 {
				break
			}
			cs = seq.Recenter(cluster, len(cs), seedVal, iter, cs)
		}
		if w.ID() == 0 {
			res.Cluster = append([]uint32(nil), cluster...)
			res.Dist = append([]int32(nil), dist...)
			res.Centers = cs
			res.DistSums = distSums
			res.Rounds = rounds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
