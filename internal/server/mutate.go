package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/graph"
	"repro/internal/mutate"
)

// MutationJSON is one mutation op on the wire.
type MutationJSON struct {
	Op     string  `json:"op"` // add_edge | remove_edge | add_vertex | remove_vertex
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
}

// MutateRequest is one POST /mutate body: an ordered batch applied
// atomically to the named graph's latest epoch.
type MutateRequest struct {
	Graph     string         `json:"graph"`
	Mutations []MutationJSON `json:"mutations"`
}

// MutateResponse reports one committed batch.
type MutateResponse struct {
	Graph       string `json:"graph"`
	Epoch       uint64 `json:"epoch"`
	ParentEpoch uint64 `json:"parent_epoch"`
	Fingerprint string `json:"fingerprint"`
	Applied     int    `json:"applied"`
	Vertices    int    `json:"vertices"`
	Edges       int64  `json:"edges"`
	// IncMs is the time the commit spent carrying derived state
	// forward: patching the undirected variant.
	IncMs float64 `json:"inc_ms"`
	// Cache consequences of the commit.
	CachePromoted int `json:"cache_promoted"`
	CacheDropped  int `json:"cache_dropped"`
	// PoolRetired counts idle old-epoch engines reclaimed.
	PoolRetired int `json:"pool_retired"`
}

// batchFromJSON validates op names and assembles the canonical batch.
func batchFromJSON(ops []MutationJSON) (mutate.Batch, error) {
	var b mutate.Batch
	for i, m := range ops {
		op, ok := mutate.OpFromString(m.Op)
		if !ok {
			return b, fmt.Errorf("mutation %d: unknown op %q", i, m.Op)
		}
		b.Ops = append(b.Ops, mutate.Mutation{
			Op:     op,
			Src:    graph.VertexID(m.Src),
			Dst:    graph.VertexID(m.Dst),
			Weight: m.Weight,
		})
	}
	return b, nil
}

// handleMutate commits one mutation batch: validate → apply on the
// version chain (new immutable snapshot, chained fingerprint) →
// carry the undirected variant forward → promote/drop cache entries by
// read-set intersection → retire idle old-epoch pool slots. In-flight
// queries are untouched: they hold epoch-pinned slots and finish on
// the version they started on.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.wg.Add(1)
	s.drainMu.RUnlock()
	defer s.wg.Done()

	var req MutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.mutateErr.Add(1)
		http.Error(w, fmt.Sprintf("bad JSON body: %v", err), http.StatusBadRequest)
		return
	}
	ge, ok := s.pool.Entry(req.Graph)
	if !ok {
		s.mutateErr.Add(1)
		http.Error(w, fmt.Sprintf("unknown graph %q (serving %v)", req.Graph, s.pool.GraphNames()), http.StatusBadRequest)
		return
	}
	batch, err := batchFromJSON(req.Mutations)
	if err != nil {
		s.mutateErr.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	res, err := ge.commit(batch)
	if err != nil {
		s.mutateErr.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mutations.Add(1)

	// The batch region is conservative for every variant: symmetrizing
	// adds no endpoints, and the full-region override for synthesized
	// weights happened at Put time.
	promoted, dropped := s.cache.Advance(req.Graph, res.snap.Epoch(), batch.Region())
	retired := s.pool.RetireEpochs(req.Graph)

	info := res.state.Info()
	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:         req.Graph,
		Epoch:         res.snap.Epoch(),
		ParentEpoch:   res.snap.Epoch() - 1,
		Fingerprint:   res.snap.Fingerprint(),
		Applied:       len(batch.Ops),
		Vertices:      info.vertices,
		Edges:         info.edges,
		IncMs:         durMs(res.incDur),
		CachePromoted: promoted,
		CacheDropped:  dropped,
		PoolRetired:   retired,
	})
}
