package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// statuszClusters reads /statusz's count of engines ever built.
func statuszClusters(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Pool.Clusters
}

// TestCommitAdvancesIdleEngines: across commits on the local provider a
// commit retires no idle engine — it re-files them — and the next query
// of every (variant, mode) advances one instead of building, so /statusz
// `clusters` stays flat while every answer equals a fresh engine's at
// the epoch it reports. The chain covers batches shaped like the serving
// benchmark's, a vertex added (the path that derives afresh) and a
// vertex removed. A query pinned to a superseded epoch still builds, and
// the remote provider's ring is still retired at commit and rebuilt.
func TestCommitAdvancesIdleEngines(t *testing.T) {
	const commits = 5
	_, addrs := startWorkers(t, 2)
	cfg := Config{Graphs: map[string]*graph.Graph{"g": testGraph(7, 3)}, Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ge, _ := s.pool.entry("g")
	algos := []string{"bfs", "pagerank", "kcore", "mis", "cc", "sssp"}
	modes := []core.Mode{core.ModeSympleGraph, core.ModeGemini}

	queryAll := func(epoch uint64) {
		t.Helper()
		for _, algo := range algos {
			for _, mode := range modes {
				code, got, body := getResponse(t, fmt.Sprintf("%s/query?graph=g&algo=%s&mode=%v&no_cache=1&provider=local", ts.URL, algo, mode))
				if code != http.StatusOK || got.Epoch != epoch {
					t.Fatalf("epoch %d %s/%v: %d at epoch %d, %s", epoch, algo, mode, code, got.Epoch, body)
				}
				st, err := ge.Resolve(epoch)
				if err != nil {
					t.Fatal(err)
				}
				q, err := canonicalize(Request{Graph: "g", Algo: algo, Mode: mode.String()}, st.Info())
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := core.NewCluster(st.Graph(variantFor(algo)), core.Options{NumNodes: 2, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := RunAlgorithm(fresh, q)
				fresh.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Result, want) {
					t.Fatalf("epoch %d %s/%v: served %+v, a fresh engine answers %+v", epoch, algo, mode, got.Result, want)
				}
			}
		}
	}
	remote := func() {
		t.Helper()
		if code, resp, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&no_cache=1&provider=remote"); code != http.StatusOK || resp.Provider != "remote" {
			t.Fatalf("remote bfs: %d provider %q %s", code, resp.Provider, body)
		}
	}

	queryAll(1)
	remote()
	built := statuszClusters(t, ts.URL)
	rng := rand.New(rand.NewSource(5))
	n := ge.Latest().Info().vertices
	for c := 0; c < commits; c++ {
		var ops []MutationJSON
		for j := 0; j < 32; j++ {
			op := "add_edge"
			if j%3 == 2 {
				op = "remove_edge"
			}
			ops = append(ops, MutationJSON{Op: op, Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: 1})
		}
		switch c {
		case 1:
			ops = append(ops, MutationJSON{Op: "add_vertex"})
		case 3:
			ops = append(ops, MutationJSON{Op: "remove_vertex", Src: uint32(rng.Intn(n))})
		}
		code, mr, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: ops})
		if code != http.StatusOK {
			t.Fatalf("commit %d: %d %s", c, code, body)
		}
		if mr.PoolRetired != 1 {
			t.Fatalf("commit %d retired %d idle engines, want only the remote ring (local ones are re-filed)", c, mr.PoolRetired)
		}
		if _, _, superseded := idleEngines(s.pool, "g"); superseded != 0 {
			t.Fatalf("commit %d left %d idle lists of a superseded epoch", c, superseded)
		}
		queryAll(mr.Epoch)
		if got := statuszClusters(t, ts.URL); got != built {
			t.Fatalf("commit %d: /statusz counts %d clusters built, want %d: a lease built instead of advancing", c, got, built)
		}
		remote()
		if built++; s.pool.slots() != built {
			t.Fatalf("commit %d: the remote query built %d engines, want 1", c, s.pool.slots()-built+1)
		}
	}

	// A query pinned to the superseded epoch builds: no engine is kept for it.
	_, hi := ge.store.Window()
	if code, resp, body := getResponse(t, fmt.Sprintf("%s/query?graph=g&algo=bfs&epoch=%d&no_cache=1&provider=local", ts.URL, hi-1)); code != http.StatusOK || resp.Epoch != hi-1 {
		t.Fatalf("pinned query: %d at epoch %d, %s", code, resp.Epoch, body)
	}
	if got := s.pool.slots(); got != built+1 {
		t.Fatalf("the pinned query built %d engines, want 1", got-built)
	}
}

// TestWeightedVariantSharesDraws: every epoch's synthesized-weights
// variant is bit for bit graph.RandomWeights(g, synthWeightSeed) over the epoch's
// graph, over a chain whose edge count grows and shrinks, while the
// epochs share one stream of draws.
func TestWeightedVariantSharesDraws(t *testing.T) {
	ge := servedEntry(t, "g", testGraph(7, 3))
	check := func(st *epochState) {
		t.Helper()
		got, want := st.Graph(variantWeighted), graph.RandomWeights(st.Graph(variantDirected), synthWeightSeed)
		gotOff, gotSrc, gotW := got.InCSC()
		wantOff, wantSrc, wantW := want.InCSC()
		if !mutate.Equal(got, want) || !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotSrc, wantSrc) ||
			!bitsEqual(gotW, wantW) || math.Float32bits(got.MaxWeight()) != math.Float32bits(want.MaxWeight()) {
			t.Fatalf("epoch %d (%d arcs): weighted variant differs from RandomWeights(g, synthWeightSeed)", st.Epoch(), st.Info().edges)
		}
	}
	check(ge.Latest())
	rng := rand.New(rand.NewSource(2))
	edges := ge.Latest().Graph(variantDirected).Edges()
	sizes := []int64{ge.Latest().Info().edges}
	for c := 0; c < 8; c++ {
		var b mutate.Batch
		for j := 0; j < 24; j++ {
			if c%3 == 2 { // a shrinking epoch
				e := edges[rng.Intn(len(edges))]
				b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpRemoveEdge, Src: e.Src, Dst: e.Dst})
			} else {
				b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpAddEdge, Src: graph.VertexID(rng.Intn(128)), Dst: graph.VertexID(rng.Intn(128))})
			}
		}
		res, err := ge.commit(b)
		if err != nil {
			t.Fatal(err)
		}
		check(res.state)
		sizes = append(sizes, res.state.Info().edges)
	}
	grew, shrank := false, false
	for i := 1; i < len(sizes); i++ {
		grew, shrank = grew || sizes[i] > sizes[i-1], shrank || sizes[i] < sizes[i-1]
	}
	if !grew || !shrank {
		t.Fatalf("edge counts %v never both grew and shrank", sizes)
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
