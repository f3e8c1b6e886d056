package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// postMutate fires one mutation batch and decodes the response.
func postMutate(t *testing.T, url string, req MutateRequest) (int, MutateResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var mr MutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("bad mutate response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, mr, string(raw)
}

func addEdge(src, dst int) MutationJSON {
	return MutationJSON{Op: "add_edge", Src: uint32(src), Dst: uint32(dst)}
}

// chainGraph is a tiny hand-built graph whose reachability is obvious:
// 0→1→2 plus 3→4, vertex 0 carrying the largest out-degree (0→1, 0→2)
// so it is the default BFS root.
func chainGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(10, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMutateEndpoint walks the /mutate lifecycle: a commit advances
// the epoch, queries pin to any retained epoch (and reject
// unretained ones), and /statusz reports the version chain.
func TestMutateEndpoint(t *testing.T) {
	s := testServer(t, Config{Graphs: map[string]*graph.Graph{"g": chainGraph(t)}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Input validation: unknown graph, unknown op, method.
	if code, _, _ := postMutate(t, ts.URL, MutateRequest{Graph: "nosuch"}); code != http.StatusBadRequest {
		t.Fatalf("unknown graph: %d", code)
	}
	if code, _, body := postMutate(t, ts.URL, MutateRequest{
		Graph: "g", Mutations: []MutationJSON{{Op: "merge_vertex"}},
	}); code != http.StatusBadRequest {
		t.Fatalf("unknown op: %d %s", code, body)
	}
	if resp, err := http.Get(ts.URL + "/mutate"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// A commit, epoch 1 → 2, from a client that still sends the
	// retired "verify" field: it is ignored, and the response carries
	// none of the retired tracker fields.
	resp, err := http.Post(ts.URL+"/mutate", "application/json", strings.NewReader(
		`{"graph":"g","mutations":[{"op":"add_edge","src":2,"dst":3},{"op":"add_vertex"}],"verify":true}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, raw)
	}
	var mr MutateResponse
	var keys map[string]any
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"verified", "core_changed", "scratch_ms"} {
		if _, ok := keys[k]; ok {
			t.Fatalf("mutate response carries retired key %q: %s", k, raw)
		}
	}
	if mr.Epoch != 2 || mr.ParentEpoch != 1 || mr.Applied != 2 {
		t.Fatalf("mutate response %+v", mr)
	}
	if mr.Vertices != 11 || mr.Edges != 5 {
		t.Fatalf("post-commit shape: %d vertices %d edges", mr.Vertices, mr.Edges)
	}

	// Queries pin: default = latest, epoch=1 = the pre-mutation graph,
	// a never-committed epoch is a client error.
	code, latest, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&root=0&no_cache=1")
	if code != http.StatusOK || latest.Epoch != 2 {
		t.Fatalf("latest query: %d epoch=%d %s", code, latest.Epoch, body)
	}
	if latest.Result.Reached != 5 { // 0→{1,2}, new 2→3, 3→4
		t.Fatalf("epoch-2 bfs reached %d, want 5", latest.Result.Reached)
	}
	code, pinned, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&root=0&epoch=1&no_cache=1")
	if code != http.StatusOK || pinned.Epoch != 1 {
		t.Fatalf("pinned query: %d epoch=%d %s", code, pinned.Epoch, body)
	}
	if pinned.Result.Reached != 3 { // 0→{1,2} only
		t.Fatalf("epoch-1 bfs reached %d, want 3", pinned.Result.Reached)
	}
	if code, _, _ := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&epoch=9"); code != http.StatusBadRequest {
		t.Fatalf("future epoch: %d", code)
	}

	// /statusz surfaces the chain and the commit counters.
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	es, ok := st.Epochs["g"]
	if !ok {
		t.Fatalf("statusz has no epochs section: %+v", st)
	}
	if es.Epoch != 2 || es.Commits != 1 || es.OpsApplied != 2 {
		t.Fatalf("epoch status %+v", es)
	}
	if st.Mutations.Applied != 1 || st.Mutations.Errors == 0 {
		t.Fatalf("mutation counters %+v", st.Mutations)
	}
}

// TestCacheAdvanceAcrossEpochs pins the delta-keyed invalidation: a
// cached BFS whose read-set is disjoint from the mutated region is
// promoted to the new epoch (still served without recompute), while an
// intersecting one is dropped.
func TestCacheAdvanceAcrossEpochs(t *testing.T) {
	s := testServer(t, Config{Graphs: map[string]*graph.Graph{"g": chainGraph(t)}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Populate the cache: bfs from 0 reads {0,1,2}.
	code, first, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&root=0")
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first bfs: %d cached=%v %s", code, first.Cached, body)
	}

	// Mutate far from the read-set: {8,9} ∩ {0,1,2} = ∅ → promotion.
	code, mr, body := postMutate(t, ts.URL, MutateRequest{
		Graph: "g", Mutations: []MutationJSON{addEdge(8, 9)},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	if mr.CachePromoted != 1 || mr.CacheDropped != 0 {
		t.Fatalf("disjoint mutation: promoted=%d dropped=%d", mr.CachePromoted, mr.CacheDropped)
	}
	code, again, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&root=0")
	if code != http.StatusOK || !again.Cached || again.Epoch != 2 {
		t.Fatalf("promoted entry not served: %d cached=%v epoch=%d %s", code, again.Cached, again.Epoch, body)
	}
	if again.Result.Reached != first.Result.Reached {
		t.Fatalf("promoted answer changed: %d vs %d", again.Result.Reached, first.Result.Reached)
	}

	// Mutate inside the read-set: {2,5} ∩ {0,1,2} ≠ ∅ → drop, and the
	// recomputed answer reflects the new edge.
	code, mr, body = postMutate(t, ts.URL, MutateRequest{
		Graph: "g", Mutations: []MutationJSON{addEdge(2, 5)},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	if mr.CacheDropped != 1 {
		t.Fatalf("intersecting mutation: promoted=%d dropped=%d", mr.CachePromoted, mr.CacheDropped)
	}
	code, third, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&root=0")
	if code != http.StatusOK || third.Cached {
		t.Fatalf("dropped entry still served: %d cached=%v %s", code, third.Cached, body)
	}
	if third.Result.Reached != first.Result.Reached+1 {
		t.Fatalf("recomputed reach %d, want %d", third.Result.Reached, first.Result.Reached+1)
	}
}

// TestQueryPinnedEpochSurvivesCommit is the acceptance criterion for
// admission pinning: a query admitted at epoch N answers from epoch N's
// graph even when N+1 commits mid-flight — verified by replaying every
// concurrent answer against its pinned epoch after the dust settles.
func TestQueryPinnedEpochSurvivesCommit(t *testing.T) {
	s := testServer(t, Config{Graphs: map[string]*graph.Graph{"g": chainGraph(t)}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rounds = 8
	answers := make([]Response, rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, r, body := getResponse(t, ts.URL+"/query?graph=g&algo=bfs&root=0&no_cache=1")
			if code != http.StatusOK {
				t.Errorf("round %d: %d %s", i, code, body)
				return
			}
			answers[i] = r
		}(i)
		// Each round racing one commit that extends the BFS tree.
		code, _, body := postMutate(t, ts.URL, MutateRequest{
			Graph: "g", Mutations: []MutationJSON{addEdge(2, 5+(i%5))},
		})
		if code != http.StatusOK {
			t.Fatalf("round %d mutate: %d %s", i, code, body)
		}
	}
	wg.Wait()

	for i, r := range answers {
		if r.Epoch == 0 {
			continue // query errored; already reported
		}
		code, replay, body := getResponse(t,
			fmt.Sprintf("%s/query?graph=g&algo=bfs&root=0&epoch=%d&no_cache=1", ts.URL, r.Epoch))
		if code != http.StatusBadRequest && code != http.StatusOK {
			t.Fatalf("round %d replay: %d %s", i, code, body)
		}
		if code == http.StatusBadRequest {
			continue // epoch aged out of the retention window
		}
		if !reflect.DeepEqual(replay.Result, r.Result) {
			t.Fatalf("round %d: answer at epoch %d not reproducible: %+v vs %+v",
				i, r.Epoch, r.Result, replay.Result)
		}
	}
}

// TestMutateChaos is the torn-snapshot chaos gate: mutation batches
// commit while a worker is killed and later rejoins, and every epoch a
// worker serves must be exactly the front-end's version — remote
// answers bit-identical to local at every step, new epochs reaching
// surviving workers as verified deltas, never a torn blob.
func TestMutateChaos(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	cfg := Config{Graphs: map[string]*graph.Graph{"g": testGraph(7, 3)}, Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitFleet(t, s, "all healthy", func(fs fleetStatus) bool { return fs.Healthy == 2 })

	compare := func(stage, algo string) Response {
		t.Helper()
		code, remote, body := getResponse(t, ts.URL+"/query?graph=g&algo="+algo+"&no_cache=1&provider=remote")
		if code != http.StatusOK {
			t.Fatalf("%s remote %s: %d %s", stage, algo, code, body)
		}
		code, local, body := getResponse(t, ts.URL+"/query?graph=g&algo="+algo+"&no_cache=1&provider=local")
		if code != http.StatusOK {
			t.Fatalf("%s local %s: %d %s", stage, algo, code, body)
		}
		if remote.Epoch != local.Epoch {
			t.Fatalf("%s %s: epochs diverged remote=%d local=%d", stage, algo, remote.Epoch, local.Epoch)
		}
		if !reflect.DeepEqual(remote.Result, local.Result) {
			t.Fatalf("%s %s: remote %+v local %+v", stage, algo, remote.Result, local.Result)
		}
		return remote
	}

	mutate := func(stage string, ops ...MutationJSON) {
		t.Helper()
		if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: ops}); code != http.StatusOK {
			t.Fatalf("%s mutate: %d %s", stage, code, body)
		}
	}

	// Epoch 1 baseline: both workers hold the directed and undirected
	// variants after serving bfs and kcore.
	compare("baseline", "bfs")
	compare("baseline", "kcore")

	// Commit epoch 2, then kill worker 1 inside the mutation window —
	// before any epoch-2 slot was built on it.
	mutate("epoch2", addEdge(1, 100), addEdge(100, 101), MutationJSON{Op: "remove_edge", Src: 0, Dst: 1})
	daemons[1].Close()

	// The survivor serves epoch 2; the front-end ships it the canonical
	// delta (it holds the epoch-1 parent), not a fresh blob.
	r := compare("post-kill", "bfs")
	if r.Epoch != 2 {
		t.Fatalf("post-kill epoch %d, want 2", r.Epoch)
	}
	compare("post-kill", "kcore")
	if daemons[0].deltasApplied.Load() == 0 {
		t.Fatal("survivor materialized epoch 2 without a delta frame")
	}
	if s.pool.remote.fleet().DeltaShips == 0 {
		t.Fatal("front-end shipped epoch 2 without counting a delta ship")
	}

	// Restart the victim on its port; the roster walks it back through
	// rejoining, preloading the current ships.
	d2, err := StartWorkerDaemon(WorkerConfig{Addr: addrs[1], Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	waitFleet(t, s, "victim healthy again", func(fs fleetStatus) bool {
		return stateOf(fs, addrs[1]) == StateHealthy
	})

	// Epoch 3 commits after the rejoin; full-width serving must agree
	// with local on both variants, and the version chain stays clean.
	mutate("epoch3", addEdge(2, 102), addEdge(102, 0))
	deadline := time.Now().Add(15 * time.Second)
	for {
		r = compare("post-rejoin", "bfs")
		if r.Epoch != 3 {
			t.Fatalf("post-rejoin epoch %d, want 3", r.Epoch)
		}
		compare("post-rejoin", "kcore")
		if !r.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring never returned to full width")
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	es := st.Epochs["g"]
	if es.Epoch != 3 || es.Commits != 2 {
		t.Fatalf("chaos epoch status %+v", es)
	}
}

// TestMutateBinnedScanIdentity drives the real POST /mutate route on
// three servers that differ only in the engine's NumBuffers (1, 2, 3),
// then compares answers on the parent epoch and on the post-commit epoch
// for a mix of dense- and sparse-heavy algorithms: results, epochs, edges
// traversed, update and control bytes equal NumBuffers 1's, and
// dependency bytes differ only by whole 13-byte frame headers — more of
// them for the programs that pull. Every epoch advance rebuilds engines
// from the new snapshot, so this proves the partition-blocked CSR and
// the range cuts are re-derived correctly (not carried stale) across
// mutations reaching the engine through the serving layer.
func TestMutateBinnedScanIdentity(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(10, 8, graph.Graph500Params(), 17)) // enough tracked vertices per partition to split
	buffers := []int{1, 2, 3}
	servers := map[int]*httptest.Server{}
	for _, B := range buffers {
		s := testServer(t, Config{
			Graphs: map[string]*graph.Graph{"g": g},
			Engine: core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 8, NumBuffers: B},
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		servers[B] = ts
	}

	batch := MutateRequest{
		Graph: "g",
		Mutations: []MutationJSON{
			addEdge(1, 200), addEdge(200, 1),
			{Op: "remove_edge", Src: uint32(g.OutNeighbors(3)[0]), Dst: 3},
		},
	}
	epochs := map[int]uint64{}
	for B, ts := range servers {
		code, mr, body := postMutate(t, ts.URL, batch)
		if code != http.StatusOK {
			t.Fatalf("NumBuffers %d mutate: %d %s", B, code, body)
		}
		epochs[B] = mr.Epoch
	}
	if epochs[1] != epochs[2] || epochs[1] != epochs[3] {
		t.Fatalf("epoch skew: %v", epochs)
	}

	queries := []struct {
		q     string
		pulls bool // every run makes dense passes, so more ranges means more frames
	}{
		{"algo=bfs&root=1", false}, {"algo=cc", false}, {"algo=kcore&k=4", true},
		{"algo=sssp&root=1", false}, {"algo=pagerank&iters=4", true},
	}
	for _, q := range queries {
		for _, pin := range []string{"", fmt.Sprintf("&epoch=%d", epochs[1]-1)} {
			url := "/query?graph=g&no_cache=1&" + q.q + pin
			code, one, body := getResponse(t, servers[1].URL+url)
			if code != http.StatusOK {
				t.Fatalf("NumBuffers 1 %s: %d %s", url, code, body)
			}
			for _, B := range buffers[1:] {
				code, got, body := getResponse(t, servers[B].URL+url)
				if code != http.StatusOK {
					t.Fatalf("NumBuffers %d %s: %d %s", B, url, code, body)
				}
				if !reflect.DeepEqual(got.Result, one.Result) || got.Epoch != one.Epoch {
					t.Fatalf("%s: NumBuffers %d %+v (epoch %d) != NumBuffers 1 %+v (epoch %d)",
						url, B, got.Result, got.Epoch, one.Result, one.Epoch)
				}
				extra := got.Engine.DependencyBytes - one.Engine.DependencyBytes
				want := one.Engine
				want.DependencyBytes += extra
				if got.Engine != want || extra < 0 || extra%13 != 0 || (q.pulls && extra == 0) {
					t.Fatalf("%s: NumBuffers %d engine stats %+v, NumBuffers 1 %+v: want a difference of whole dependency frame headers only",
						url, B, got.Engine, one.Engine)
				}
			}
		}
	}
}

// TestCommitDerivesUndirectedVariant checks the epoch layer's half of
// the O(delta) commit: at every epoch the undirected variant installed
// at commit time equals graph.Symmetrize of the snapshot, and a batch
// that changes no undirected pair shares the parent's variant outright.
// Weighted bases are patched too, reverse-arc weights included, and
// every installed variant keeps one topology for both of its sides.
func TestCommitDerivesUndirectedVariant(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		base := graph.RMAT(7, 6, graph.Graph500Params(), 3)
		if weighted {
			base = graph.RandomWeights(base, 5)
		}
		ge := servedEntry(t, "g", base)
		rng := rand.New(rand.NewSource(9))
		n := base.NumVertices()
		for epoch := 0; epoch < 12; epoch++ {
			parent := ge.Latest()
			var b mutate.Batch
			switch epoch {
			case 3: // only reverse arcs of existing ones: no undirected pair changes
				for v := 0; len(b.Ops) < 4; v++ {
					pg := parent.Graph(variantDirected)
					for _, u := range pg.OutNeighbors(graph.VertexID(v)) {
						if !pg.HasEdge(u, graph.VertexID(v)) {
							b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpAddEdge, Src: u, Dst: graph.VertexID(v), Weight: 1})
							break
						}
					}
				}
			case 5:
				b.Ops = []mutate.Mutation{{Op: mutate.OpAddVertex}, {Op: mutate.OpAddEdge, Src: graph.VertexID(n), Dst: 0, Weight: 1},
					{Op: mutate.OpRemoveVertex, Src: 1}}
				n++
			default:
				for i := 0; i < 8; i++ {
					op := mutate.OpAddEdge
					if i%3 == 0 {
						op = mutate.OpRemoveEdge
					}
					b.Ops = append(b.Ops, mutate.Mutation{Op: op, Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: float32(1 + rng.Intn(3))})
				}
				if nb := parent.Graph(variantDirected).OutNeighbors(2); len(nb) > 0 {
					b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpRemoveEdge, Src: 2, Dst: nb[0]})
				}
			}
			res, err := ge.commit(b)
			if err != nil {
				t.Fatalf("weighted=%v epoch %d: %v", weighted, epoch, err)
			}
			st := res.state
			st.mu.Lock()
			gotU, installed := st.variants[variantUndirected]
			st.mu.Unlock()
			if !installed {
				t.Fatalf("weighted=%v epoch %d: undirected variant not memoized by the commit", weighted, epoch)
			}
			wantU := graph.Symmetrize(st.Graph(variantDirected))
			if err := gotU.Validate(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotU.Edges(), wantU.Edges()) || gotU.NumVertices() != wantU.NumVertices() {
				t.Fatalf("weighted=%v epoch %d: undirected variant differs from Symmetrize", weighted, epoch)
			}
			if !gotU.SidesShared() {
				t.Fatalf("weighted=%v epoch %d: undirected variant holds two copies of its topology", weighted, epoch)
			}
			if !weighted && epoch == 3 && gotU != parent.Graph(variantUndirected) {
				t.Fatalf("epoch %d: a batch of reverse arcs should share the parent's undirected variant", epoch)
			}
		}
	}
}

// TestCommitHubBeyondBatchLimit: removing a hub vertex is one submitted
// op, but its effective delta and the symmetric delta the undirected
// variant is patched with hold more arcs than MaxBatchOps. The limit
// bounds what a client submits, not what a commit derives.
func TestCommitHubBeyondBatchLimit(t *testing.T) {
	ge := servedEntry(t, "star", graph.Star(40000))
	res, err := ge.commit(mutate.Batch{Ops: []mutate.Mutation{{Op: mutate.OpRemoveVertex, Src: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.snap.Effective().Ops); n <= mutate.MaxBatchOps {
		t.Fatalf("effective delta of %d ops does not exceed the batch limit", n)
	}
	st := res.state
	st.mu.Lock()
	gotU, installed := st.variants[variantUndirected]
	st.mu.Unlock()
	if !installed {
		t.Fatal("undirected variant not memoized by the commit")
	}
	wantU := graph.Symmetrize(st.Graph(variantDirected))
	if err := gotU.Validate(); err != nil {
		t.Fatal(err)
	}
	if gotU.NumVertices() != wantU.NumVertices() || gotU.NumEdges() != 0 || wantU.NumEdges() != 0 {
		t.Fatalf("undirected variant %v, want %v", gotU, wantU)
	}
}

// TestMutateChaosPinnedEpochs: while commits land, queries pin random
// retained epochs — BFS, K-core and SSSP, one per variant, in-process
// and on a worker ring — and each answer equals a direct engine run on
// the graph the mutate.Apply chain built at that epoch. Only the newest
// epoch's graph is kept, so every pinned answer ran on a rebuilt graph;
// the ring's first query, pinned to a superseded epoch before any other
// remote one, gets that graph as a full ship (Snapshot.Blob).
func TestMutateChaosPinnedEpochs(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	base := testGraph(7, 3)
	cfg := Config{Graphs: map[string]*graph.Graph{"g": base}, Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	waitFleet(t, s, "all healthy", func(fs fleetStatus) bool { return fs.Healthy == 2 })

	var chainMu sync.Mutex
	chain := map[uint64]*graph.Graph{1: base}
	rng := rand.New(rand.NewSource(11))
	commit := func() {
		t.Helper()
		chainMu.Lock()
		latest := uint64(len(chain))
		parent := chain[latest]
		chainMu.Unlock()
		n := parent.NumVertices()
		var ops []MutationJSON
		for len(ops) < 12 {
			switch r := rng.Intn(10); {
			case r == 0:
				ops = append(ops, MutationJSON{Op: "add_vertex"})
				n++
			case r == 1:
				ops = append(ops, MutationJSON{Op: "remove_vertex", Src: uint32(rng.Intn(n))})
			case r < 5:
				ops = append(ops, MutationJSON{Op: "remove_edge", Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))})
			default:
				ops = append(ops, addEdge(rng.Intn(n), rng.Intn(n)))
			}
		}
		code, mr, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: ops})
		if code != http.StatusOK || mr.Epoch != latest+1 {
			t.Fatalf("mutate: %d epoch %d %s", code, mr.Epoch, body)
		}
		b, err := batchFromJSON(ops)
		if err != nil {
			t.Fatal(err)
		}
		child, err := mutate.Apply(parent, b)
		if err != nil {
			t.Fatal(err)
		}
		chainMu.Lock()
		chain[mr.Epoch] = child
		chainMu.Unlock()
	}

	type answer struct {
		epoch uint64
		algo  string
		res   Result
	}
	var answersMu sync.Mutex
	var answers []answer
	query := func(epoch uint64, algo, provider string) bool {
		code, r, body := getResponse(t, fmt.Sprintf("%s/query?graph=g&algo=%s&epoch=%d&no_cache=1&provider=%s", ts.URL, algo, epoch, provider))
		switch {
		case code == http.StatusBadRequest && strings.Contains(body, "not retained"):
			return false // aged out between picking it and asking
		case code != http.StatusOK || r.Epoch != epoch:
			t.Errorf("%s %s @%d: %d epoch %d %s", provider, algo, epoch, code, r.Epoch, body)
			return false
		}
		answersMu.Lock()
		answers = append(answers, answer{epoch, algo, r.Result})
		answersMu.Unlock()
		return true
	}

	for i := 0; i < 3; i++ {
		commit()
	}
	if !query(2, "bfs", "remote") {
		t.Fatal("first remote query failed")
	}
	if daemons[0].deltasApplied.Load()+daemons[1].deltasApplied.Load() != 0 {
		t.Fatal("a ring with no epoch cached got a delta, not a full ship")
	}

	ge := s.pool.graphs["g"]
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(c)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				lo, hi := ge.store.Window()
				epoch := lo + uint64(qrng.Intn(int(hi-lo+1)))
				query(epoch, []string{"bfs", "kcore", "sssp"}[i%3], []string{"local", "remote"}[qrng.Intn(2)])
			}
		}(c)
	}
	for i := 0; i < 2*mutate.DefaultRetention; i++ {
		commit()
		time.Sleep(20 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	opts := core.Options{NumNodes: 2, Mode: core.ModeSympleGraph}
	direct := map[string]Result{}
	for _, a := range answers {
		key := fmt.Sprintf("%s@%d", a.algo, a.epoch)
		want, ok := direct[key]
		if !ok {
			q, g, err := Prepare(Request{Graph: "g", Algo: a.algo, Root: -1}, chain[a.epoch])
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.NewCluster(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err = RunAlgorithm(c, q)
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			direct[key] = want
		}
		if !reflect.DeepEqual(a.res, want) {
			t.Fatalf("%s: served %+v, direct run on the Apply chain's graph %+v", key, a.res, want)
		}
	}
	if len(direct) < 6 {
		t.Fatalf("only %d (algo, epoch) pairs answered", len(direct))
	}
	t.Logf("%d pinned answers over %d (algo, epoch) pairs", len(answers), len(direct))
}
