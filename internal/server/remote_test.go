package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// startWorkers launches n in-process worker daemons and returns their
// control addresses.
func startWorkers(t *testing.T, n int) ([]*WorkerDaemon, []string) {
	t.Helper()
	daemons := make([]*WorkerDaemon, n)
	addrs := make([]string, n)
	for i := range daemons {
		d, err := StartWorkerDaemon(WorkerConfig{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		daemons[i] = d
		addrs[i] = d.Addr()
	}
	return daemons, addrs
}

func getResponse(t *testing.T, url string) (int, Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var r Response
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("bad response body: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, r, string(body)
}

// TestRemoteProviderMatchesLocal is the acceptance gate for the remote
// path: a front-end with a 2-worker roster serves BFS, SSSP and K-core
// in both engine modes over real TCP worker processes, and every result
// is identical to the in-process provider on the same graph and seed.
func TestRemoteProviderMatchesLocal(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	s := testServer(t, Config{Workers: addrs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, mode := range []string{"symplegraph", "gemini"} {
		for _, algo := range []string{"bfs", "sssp", "kcore"} {
			base := fmt.Sprintf("%s/query?graph=g1&algo=%s&mode=%s&no_cache=1", ts.URL, algo, mode)
			code, remote, body := getResponse(t, base+"&provider=remote")
			if code != http.StatusOK {
				t.Fatalf("%s/%s remote: %d %s", algo, mode, code, body)
			}
			code, local, body := getResponse(t, base+"&provider=local")
			if code != http.StatusOK {
				t.Fatalf("%s/%s local: %d %s", algo, mode, code, body)
			}
			if remote.Provider != "remote" || local.Provider != "local" {
				t.Fatalf("%s/%s providers: %q vs %q", algo, mode, remote.Provider, local.Provider)
			}
			if !reflect.DeepEqual(remote.Result, local.Result) {
				t.Fatalf("%s/%s diverged: remote %+v local %+v", algo, mode, remote.Result, local.Result)
			}
		}
	}

	// The roster is the default provider: an unrouted query runs remote.
	code, r, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1")
	if code != http.StatusOK || r.Provider != "remote" {
		t.Fatalf("default provider: %d %q %s", code, r.Provider, body)
	}
	if daemons[0].slotsBuilt.Load() == 0 || daemons[1].slotsBuilt.Load() == 0 {
		t.Fatalf("worker slots built: %d, %d", daemons[0].slotsBuilt.Load(), daemons[1].slotsBuilt.Load())
	}

	// Unknown providers are a client error, not a scheduling surprise.
	if code, _, _ := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&provider=cloud"); code != http.StatusBadRequest {
		t.Fatalf("unknown provider: %d", code)
	}
}

// TestStatuszKeysRemote pins /statusz's key set with one in-process
// worker: the fleet section and a worker row join the local document's
// sections, and pool.providers lists both providers.
func TestStatuszKeysRemote(t *testing.T) {
	_, addrs := startWorkers(t, 1)
	cfg := Config{Workers: addrs}
	fastFleet(&cfg)
	s := testServer(t, cfg)
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	waitFleet(t, s, "healthy", func(fs fleetStatus) bool { return fs.Healthy == 1 })
	if code, _, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs"); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	// The local document's keys, plus the fleet section with one worker
	// row (a healthy worker omits consecutive_fails) and the remote
	// provider's build count.
	want := slices.Concat(localStatuszKeys, []string{
		"fleet.remote.degraded",
		"fleet.remote.degraded_builds",
		"fleet.remote.delta_ships",
		"fleet.remote.healthy",
		"fleet.remote.probe_failures",
		"fleet.remote.probe_rtt.count",
		"fleet.remote.probe_rtt.max_ms",
		"fleet.remote.probe_rtt.mean_ms",
		"fleet.remote.probe_rtt.p50_ms",
		"fleet.remote.probe_rtt.p95_ms",
		"fleet.remote.probe_rtt.p99_ms",
		"fleet.remote.probes",
		"fleet.remote.rejoins",
		"fleet.remote.total",
		"fleet.remote.transitions",
		"fleet.remote.workers[].addr",
		"fleet.remote.workers[].graphs_cached",
		"fleet.remote.workers[].last_rtt_ms",
		"fleet.remote.workers[].max_slots",
		"fleet.remote.workers[].slots_active",
		"fleet.remote.workers[].state",
		"pool.providers.remote",
	})
	slices.Sort(want)
	if got := statuszKeys(t, ts.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("/statusz key paths:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWorkerLossMidQueryRebuildsSlot kills one sgworker while it is
// executing a query: the in-flight query must fail with the peer-lost
// typed error (comm.ClosedError through cliutil's classifier), the
// poisoned slot must be rebuilt against the surviving roster, and a
// re-issued query must succeed.
func TestWorkerLossMidQueryRebuildsSlot(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	s := testServer(t, Config{Workers: addrs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Kill worker 1 as soon as any worker has started executing.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if daemons[0].runsStarted.Load()+daemons[1].runsStarted.Load() > 0 {
				daemons[1].Close()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	code, _, body := getResponse(t, ts.URL+"/query?graph=g1&algo=pagerank&iters=400&no_cache=1&provider=remote")
	<-killed
	if code != http.StatusInternalServerError {
		t.Fatalf("mid-kill query: %d %s", code, body)
	}
	if !strings.Contains(body, "peer lost") {
		t.Fatalf("mid-kill error not classified as peer loss: %s", body)
	}

	// The slot rebuild re-evaluated the roster: the next remote query
	// runs on a ring formed over the surviving worker alone.
	code, r, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=remote")
	if code != http.StatusOK || r.Provider != "remote" {
		t.Fatalf("post-kill query: %d %q %s", code, r.Provider, body)
	}
	// And it still matches the in-process answer.
	code, local, body := getResponse(t, ts.URL+"/query?graph=g1&algo=bfs&no_cache=1&provider=local")
	if code != http.StatusOK {
		t.Fatalf("post-kill local query: %d %s", code, body)
	}
	if !reflect.DeepEqual(r.Result, local.Result) {
		t.Fatalf("post-kill results diverged: remote %+v local %+v", r.Result, local.Result)
	}
}

// TestRemoteVariantsArriveByDelta: one graph ships per epoch. After
// each commit the first remote ring — bfs, kcore or sssp in turn —
// reaches every worker as the committed batch against the parent the
// worker holds, applied once per epoch; the other two variants' rings
// derive from that base and ship nothing. Every answer equals the
// local provider's.
func TestRemoteVariantsArriveByDelta(t *testing.T) {
	daemons, addrs := startWorkers(t, 2)
	s := testServer(t, Config{Graphs: map[string]*graph.Graph{"g": testGraph(7, 3)}, Workers: addrs})
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	prov := s.pool.remote

	serve := func(stage, algo string) {
		t.Helper()
		base := ts.URL + "/query?graph=g&no_cache=1&algo=" + algo
		code, remote, body := getResponse(t, base+"&provider=remote")
		if code != http.StatusOK || remote.Degraded {
			t.Fatalf("%s remote %s: %d degraded=%v %s", stage, algo, code, remote.Degraded, body)
		}
		_, local, _ := getResponse(t, base+"&provider=local")
		if remote.Epoch != local.Epoch || !reflect.DeepEqual(remote.Result, local.Result) {
			t.Fatalf("%s %s: remote %+v@%d local %+v@%d", stage, algo, remote.Result, remote.Epoch, local.Result, local.Epoch)
		}
	}
	applied := func() (n int64) {
		for _, d := range daemons {
			n += d.deltasApplied.Load()
		}
		return n
	}
	algos := []string{"bfs", "kcore", "sssp"}
	for _, algo := range algos {
		serve("epoch 1", algo)
	}
	for c, first := range algos {
		if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: []MutationJSON{addEdge(c+1, 100+c), addEdge(100+c, 0)}}); code != http.StatusOK {
			t.Fatalf("commit %d: %d %s", c, code, body)
		}
		stage := fmt.Sprintf("epoch %d", c+2)
		ships, apps := prov.fleet().DeltaShips, applied()
		serve(stage, first)
		if got := prov.fleet().DeltaShips - ships; got != int64(len(daemons)) {
			t.Fatalf("%s: the %s ring shipped %d deltas, want one per worker (%d)", stage, first, got, len(daemons))
		}
		if got := applied() - apps; got != int64(len(daemons)) {
			t.Fatalf("%s: the %s ring applied %d deltas, want one per worker (%d)", stage, first, got, len(daemons))
		}
		for _, algo := range algos {
			serve(stage, algo)
		}
		if prov.fleet().DeltaShips-ships != int64(len(daemons)) || applied()-apps != int64(len(daemons)) {
			t.Fatalf("%s: the other variants shipped again: %d ships, %d applications",
				stage, prov.fleet().DeltaShips-ships, applied()-apps)
		}
		for i, d := range daemons {
			if got := d.graphsCached(); got != c+2 {
				t.Fatalf("%s: worker %d holds %d base graphs, want one per epoch (%d)", stage, i, got, c+2)
			}
		}
	}
}

// TestWorkerCacheKeepsRetentionEpochs: a worker serving a graph across
// more commits than mutate.DefaultRetention holds only the newest
// DefaultRetention epochs' bases, and a query pinned to an epoch it
// evicted (still retained by a front-end with a longer window) gets
// that epoch shipped again.
func TestWorkerCacheKeepsRetentionEpochs(t *testing.T) {
	const commits = mutate.DefaultRetention + 3
	daemons, addrs := startWorkers(t, 2)
	s := testServer(t, Config{Graphs: map[string]*graph.Graph{"g": testGraph(7, 3)}, Workers: addrs, Retention: commits + 1})
	t.Cleanup(s.pool.close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	serve := func(stage, query string) {
		t.Helper()
		base := ts.URL + "/query?graph=g&algo=bfs&no_cache=1" + query
		code, remote, body := getResponse(t, base+"&provider=remote")
		if code != http.StatusOK || remote.Degraded {
			t.Fatalf("%s remote: %d degraded=%v %s", stage, code, remote.Degraded, body)
		}
		_, local, _ := getResponse(t, base+"&provider=local")
		if remote.Epoch != local.Epoch || !reflect.DeepEqual(remote.Result, local.Result) {
			t.Fatalf("%s: remote %+v@%d local %+v@%d", stage, remote.Result, remote.Epoch, local.Result, local.Epoch)
		}
		for i, d := range daemons {
			if got := d.graphsCached(); got > mutate.DefaultRetention {
				t.Fatalf("%s: worker %d holds %d base graphs, want at most %d", stage, i, got, mutate.DefaultRetention)
			}
		}
	}
	serve("epoch 1", "")
	for c := 0; c < commits; c++ {
		if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g", Mutations: []MutationJSON{addEdge(c+1, 100+c)}}); code != http.StatusOK {
			t.Fatalf("commit %d: %d %s", c, code, body)
		}
		serve(fmt.Sprintf("epoch %d", c+2), "")
	}
	serve("pinned to evicted epoch 2", "&epoch=2")
}

// TestWorkerRefusesUnknownVariant: the worker derives the variant a
// build names, so a build naming none it knows is dropped before any
// graph negotiation rather than served on the wrong graph.
func TestWorkerRefusesUnknownVariant(t *testing.T) {
	daemons, addrs := startWorkers(t, 1)
	cc, err := comm.DialCtrl(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Send("build", buildMsg{Graph: "g", Variant: variantWeighted + 1, FP: "f", Epoch: 1, Node: 1, Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	if env, err := cc.Recv(); err == nil {
		t.Fatalf("worker answered %q to a build naming an unknown variant", env.Type)
	}
	if daemons[0].slotsBuilt.Load() != 0 || daemons[0].graphsCached() != 0 {
		t.Fatal("worker built a slot for an unknown variant")
	}
}

// TestRetryAfterClamp pins the overload-amplification fix: with an
// empty engine-latency histogram (mean 0) a shed client must still be
// told to back off at least one second, never "retry immediately".
func TestRetryAfterClamp(t *testing.T) {
	if got := retryAfter(0, 0, 1); got < time.Second {
		t.Fatalf("empty-histogram retry-after = %v, want ≥ 1s", got)
	}
	if got := retryAfter(0, 100, 0); got < time.Second {
		t.Fatalf("zero-inflight retry-after = %v, want ≥ 1s", got)
	}
	if got := retryAfter(time.Microsecond, 1, 8); got < time.Second {
		t.Fatalf("tiny-mean retry-after = %v, want ≥ 1s", got)
	}
	// A genuinely long drain estimate passes through (rounded).
	if got := retryAfter(10*time.Second, 7, 2); got < 10*time.Second {
		t.Fatalf("long drain estimate clamped down: %v", got)
	}
}
