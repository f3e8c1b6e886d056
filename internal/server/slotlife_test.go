package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seq"
)

// idleEngines reports the pool's idle-list shape: how many entries it
// holds, the longest list, and how many entries belong to an epoch older
// than graphName's latest.
func idleEngines(p *pool, graphName string) (entries, longest, superseded int) {
	_, hi := p.graphs[graphName].store.Window()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, idle := range p.entries {
		if len(idle) > longest {
			longest = len(idle)
		}
		if k.graph == graphName && k.epoch < hi {
			superseded++
		}
	}
	return len(p.entries), longest, superseded
}

// TestNoCacheQueriesRacingCommitsNeverWait: MaxInflight concurrent
// no-cache queries on one key race a stream of commits. Admission is the
// only concurrency gate, so no query ever waits on the pool — each comes
// back 200 inside a 2 s guard — and each answer equals the sequential
// oracle on the graph of the epoch it reports (Def. 2.2/2.4: which engine
// computed it does not matter). The pool stays a bounded cache throughout:
// no entry holds more than MaxInflight idle engines, and once everything
// is home no entry of a superseded epoch is left.
func TestNoCacheQueriesRacingCommitsNeverWait(t *testing.T) {
	const inflight, commits, guard = 3, 24, 2 * time.Second
	g := testGraph(7, 3)
	root, _ := graph.LargestOutDegreeVertex(g)
	s := testServer(t, Config{
		Graphs:      map[string]*graph.Graph{"g": g},
		MaxInflight: inflight,
		Retention:   commits + 2, // every reported epoch stays resolvable for the oracle
	})
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := fmt.Sprintf("%s/query?graph=g&algo=bfs&root=%d&no_cache=1", ts.URL, root)

	type answer struct {
		epoch   uint64
		reached int
	}
	var mu sync.Mutex
	var answers []answer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < inflight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				code, r, body := getResponse(t, url)
				if took := time.Since(start); took > guard {
					t.Errorf("query took %v, over the %v guard", took, guard)
				}
				if code != http.StatusOK {
					t.Errorf("query: %d %s", code, body)
					return
				}
				mu.Lock()
				answers = append(answers, answer{r.Epoch, r.Result.Reached})
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < commits; c++ {
		code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: []MutationJSON{addEdge(int(root), (c*13+5)%128)}})
		if code != http.StatusOK {
			t.Fatalf("commit %d: %d %s", c, code, body)
		}
		if _, longest, _ := idleEngines(s.pool, "g"); longest > inflight {
			t.Fatalf("after commit %d an entry holds %d idle engines, MaxInflight is %d", c, longest, inflight)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	ge, _ := s.pool.entry("g")
	want := map[uint64]int{}
	for _, a := range answers {
		if _, ok := want[a.epoch]; !ok {
			st, err := ge.Resolve(a.epoch)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range seq.TopDownBFS(st.Graph(variantDirected), root).Depth {
				if d >= 0 {
					want[a.epoch]++
				}
			}
		}
		if a.reached != want[a.epoch] {
			t.Fatalf("epoch %d: served reached=%d, oracle %d", a.epoch, a.reached, want[a.epoch])
		}
	}
	if len(want) < 2 {
		t.Fatalf("queries saw only %d epoch(s) over %d commits; the race never happened", len(want), commits)
	}
	if entries, longest, superseded := idleEngines(s.pool, "g"); superseded != 0 || longest > inflight || entries == 0 {
		t.Fatalf("idle pool: %d entries, longest %d, %d of superseded epochs (want ≥1, ≤%d, 0)", entries, longest, superseded, inflight)
	}
}

// TestRemoteDeadlineAnsweredWithoutRebuild: a remote query that dies on
// its deadline poisons its ring, and the 504 must not wait for a
// replacement — Release retires the slot and builds nothing, so the
// pool's build count at response time is what it was before the request.
// The next query pays for the build, over the surviving roster, and
// matches local.
func TestRemoteDeadlineAnsweredWithoutRebuild(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	s := testServer(t, Config{Workers: addrs})
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm one pagerank slot so the deadline query leases instead of
	// building (a build takes no deadline).
	if code, _, body := getResponse(t, ts.URL+"/query?graph=g1&algo=pagerank&iters=2&no_cache=1&provider=remote"); code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", code, body)
	}
	built, workerSlots := s.pool.slots(), daemons[0].slotsBuilt.Load()

	code, _, body := getResponse(t, ts.URL+"/query?graph=g1&algo=pagerank&iters=200000&deadline_ms=30&no_cache=1&provider=remote")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: %d %s", code, body)
	}
	if got := s.pool.slots(); got != built {
		t.Fatalf("pool built %d engines by the time the 504 was written, had %d before the request: Release rebuilt", got, built)
	}
	if got := daemons[0].slotsBuilt.Load(); got != workerSlots {
		t.Fatalf("worker negotiated %d slots by the time the 504 was written, had %d", got, workerSlots)
	}
	if entries, _, _ := idleEngines(s.pool, "g1"); entries != 0 {
		t.Fatalf("the poisoned ring was parked: %d idle entries", entries)
	}

	code, remote, body := getResponse(t, ts.URL+"/query?graph=g1&algo=pagerank&iters=3&no_cache=1&provider=remote")
	if code != http.StatusOK || remote.Provider != "remote" || remote.Degraded {
		t.Fatalf("post-deadline query: %d provider=%q degraded=%v %s", code, remote.Provider, remote.Degraded, body)
	}
	if got := s.pool.slots(); got != built+1 {
		t.Fatalf("the next lease built %d engines, want exactly 1", got-built)
	}
	code, local, body := getResponse(t, ts.URL+"/query?graph=g1&algo=pagerank&iters=3&no_cache=1&provider=local")
	if code != http.StatusOK {
		t.Fatalf("local: %d %s", code, body)
	}
	if !reflect.DeepEqual(remote.Result, local.Result) {
		t.Fatalf("post-deadline remote %+v, local %+v", remote.Result, local.Result)
	}
}

// TestRejoinPreloadsNewestEpochOnly: after K commits — each served on
// two variants, so the provider saw a build per (epoch, variant) — a
// worker coming back from dead is preloaded with the newest epoch alone
// (superseded epochs are payloads no build will ask for), and the
// builds that fold it back into the ring find that epoch held and serve
// every variant from it: nothing ships.
func TestRejoinPreloadsNewestEpochOnly(t *testing.T) {
	const commits = 4
	daemons, addrs := startWorkers(t, 2)
	cfg := Config{Graphs: map[string]*graph.Graph{"g": testGraph(7, 3)}, Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	waitFleet(t, s, "all healthy", func(fs fleetStatus) bool { return fs.Healthy == 2 })

	serve := func(stage string) (degraded bool) {
		t.Helper()
		for _, algo := range []string{"bfs", "kcore"} {
			code, remote, body := getResponse(t, ts.URL+"/query?graph=g&algo="+algo+"&no_cache=1&provider=remote")
			if code != http.StatusOK {
				t.Fatalf("%s remote %s: %d %s", stage, algo, code, body)
			}
			_, local, _ := getResponse(t, ts.URL+"/query?graph=g&algo="+algo+"&no_cache=1&provider=local")
			if remote.Epoch != local.Epoch || !reflect.DeepEqual(remote.Result, local.Result) {
				t.Fatalf("%s %s: remote %+v@%d local %+v@%d", stage, algo, remote.Result, remote.Epoch, local.Result, local.Epoch)
			}
			degraded = degraded || remote.Degraded
		}
		return degraded
	}
	serve("epoch 1")
	for c := 0; c < commits; c++ {
		if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: []MutationJSON{addEdge(c+1, 100+c)}}); code != http.StatusOK {
			t.Fatalf("commit %d: %d %s", c, code, body)
		}
		serve(fmt.Sprintf("epoch %d", c+2))
	}
	if got := daemons[1].graphsCached(); got < commits+1 {
		t.Fatalf("victim holds %d epochs before the kill, want every epoch it served: %d", got, commits+1)
	}

	daemons[1].Close()
	waitFleet(t, s, "victim dead", func(fs fleetStatus) bool { return stateOf(fs, addrs[1]) == StateDead })
	if !serve("victim dead") {
		t.Fatal("survivor-only ring not flagged degraded")
	}
	d2, err := StartWorkerDaemon(WorkerConfig{Addr: addrs[1], Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	waitFleet(t, s, "victim healthy again", func(fs fleetStatus) bool { return stateOf(fs, addrs[1]) == StateHealthy })

	preloaded := d2.graphsCached()
	if preloaded != 1 {
		t.Fatalf("rejoined worker was preloaded with %d epochs, want the newest alone", preloaded)
	}

	remoteProv := s.pool.remote
	deltaShips := remoteProv.fleet().DeltaShips
	deadline := time.Now().Add(15 * time.Second)
	for serve("post-rejoin") {
		if time.Now().After(deadline) {
			t.Fatal("ring never returned to full width")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if d2.slotsBuilt.Load() == 0 {
		t.Fatal("restarted worker never hosted a slot")
	}
	if got := d2.graphsCached(); got != preloaded || d2.deltasApplied.Load() != 0 || remoteProv.fleet().DeltaShips != deltaShips {
		t.Fatalf("the build after the preload shipped: epochs held %d → %d, deltas applied %d, delta ships %d → %d",
			preloaded, got, d2.deltasApplied.Load(), deltaShips, remoteProv.fleet().DeltaShips)
	}
}

// TestRejoinPreloadsLatestCommit: the rejoin preload ships a graph's
// newest committed epoch, not the one its last remote build used. After
// a remote query at epoch 1, a commit no remote query follows and a
// worker restart, the build that brings the worker back finds the
// preloaded epoch held: no delta ships and the worker commits none.
func TestRejoinPreloadsLatestCommit(t *testing.T) {
	daemons, addrs := startWorkers(t, 1)
	cfg := Config{Graphs: map[string]*graph.Graph{"g": testGraph(7, 3)}, Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	waitFleet(t, s, "healthy", func(fs fleetStatus) bool { return fs.Healthy == 1 })

	serve := func(stage string, epoch uint64) {
		t.Helper()
		base := ts.URL + "/query?graph=g&algo=bfs&no_cache=1"
		code, remote, body := getResponse(t, base+"&provider=remote")
		if code != http.StatusOK || remote.Degraded || remote.Epoch != epoch {
			t.Fatalf("%s remote: %d degraded=%v epoch %d (want %d) %s", stage, code, remote.Degraded, remote.Epoch, epoch, body)
		}
		_, local, _ := getResponse(t, base+"&provider=local")
		if !reflect.DeepEqual(remote.Result, local.Result) {
			t.Fatalf("%s: remote %+v local %+v", stage, remote.Result, local.Result)
		}
	}
	serve("epoch 1", 1)
	if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: []MutationJSON{addEdge(1, 100)}}); code != http.StatusOK {
		t.Fatalf("commit: %d %s", code, body)
	}
	daemons[0].Close()
	waitFleet(t, s, "worker dead", func(fs fleetStatus) bool { return stateOf(fs, addrs[0]) == StateDead })
	d2, err := StartWorkerDaemon(WorkerConfig{Addr: addrs[0], Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	waitFleet(t, s, "worker healthy again", func(fs fleetStatus) bool { return stateOf(fs, addrs[0]) == StateHealthy })

	ships := s.pool.remote.fleet().DeltaShips
	serve("epoch 2 after the rejoin", 2)
	if got := s.pool.remote.fleet().DeltaShips; got != ships || d2.deltasApplied.Load() != 0 || d2.graphsCached() != 1 {
		t.Fatalf("the build after the preload shipped: delta ships %d → %d, deltas applied %d, epochs held %d",
			ships, got, d2.deltasApplied.Load(), d2.graphsCached())
	}
}

// TestRetiredSlotsRemoveCheckpointDirs: slot ids are never reused, so a
// checkpoint root must hold the live slots' directories only — not one
// per slot ever built. A commit re-files the idle slots under the new
// epoch, directories and all; a query pinned to the superseded epoch
// builds a slot that is retired on release, and its directory goes with
// it. Shutdown keeps the live ones: a restarted daemon resumes from what
// Close left behind.
func TestRetiredSlotsRemoveCheckpointDirs(t *testing.T) {
	const commits = 6
	root := t.TempDir()
	s := testServer(t, Config{Graphs: map[string]*graph.Graph{"g": testGraph(6, 1)}, CheckpointRoot: root})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dirs := func() int {
		ents, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	query := func(args string) {
		if code, _, body := getResponse(t, ts.URL+"/query?graph=g&no_cache=1&"+args); code != http.StatusOK {
			t.Fatalf("%s: %d %s", args, code, body)
		}
	}
	for c := 0; c <= commits; c++ {
		for _, algo := range []string{"bfs", "kcore"} {
			query("algo=" + algo)
		}
		if c > 0 {
			query(fmt.Sprintf("algo=bfs&epoch=%d", c)) // the epoch the last commit superseded
		}
		if got := dirs(); got != 2 || got > openSlots(s.pool) {
			t.Fatalf("epoch %d: checkpoint root holds %d slot directories with %d live slots, want 2", c+1, got, openSlots(s.pool))
		}
		if c == commits {
			break
		}
		if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: []MutationJSON{addEdge(c, 40+c)}}); code != http.StatusOK {
			t.Fatalf("commit %d: %d %s", c, code, body)
		}
		if got := dirs(); got != 2 {
			t.Fatalf("commit %d re-filed the 2 idle slots but %d directories remain", c, got)
		}
	}
	if s.pool.slots() != 2+commits {
		t.Fatalf("pool built %d slots, want the 2 advanced ones and one per pinned query, %d", s.pool.slots(), 2+commits)
	}
	s.pool.close()
	if got := dirs(); got != 2 {
		t.Fatalf("shutdown left %d slot directories, want the 2 live ones kept for resume", got)
	}
}

// TestCheckpointDirRestartAtOtherShape: a slot's snapshots hold one
// partition's master arrays, so a daemon restarted over the same
// -checkpoint-dir at another -nodes must not resume them. The query
// commits snapshots at p=4; the reopened slot at p=2 answers like seq.
func TestCheckpointDirRestartAtOtherShape(t *testing.T) {
	q, g, err := Prepare(Request{Graph: "g", Algo: "bfs", Root: 0}, graph.Grid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	run := func(nodes int) *algorithms.BFSResult {
		eng, err := newLocalEngine(buildSpec{GraphName: "g", Graph: g, SlotID: 1},
			core.Options{NumNodes: nodes, CheckpointEvery: 4}, nil, root)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.BindQuery(context.Background(), q, cacheKey(q), nil); err != nil {
			t.Fatal(err)
		}
		res, err := algorithms.BFS(eng, graph.VertexID(q.Root))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(4)
	got := run(2)
	if msg := seq.ValidateBFS(g, 0, &seq.BFSResult{Depth: got.Depth, Parent: got.Parent}); msg != "" {
		t.Fatalf("p=2 over p=4's checkpoint dir: %s", msg)
	}
	if want := seq.TopDownBFS(g, 0); !reflect.DeepEqual(got.Depth, want.Depth) {
		t.Fatalf("p=2 over p=4's checkpoint dir: depth %v, want %v", got.Depth, want.Depth)
	}
}
