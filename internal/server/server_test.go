package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

func testGraph(scale int, seed int64) *graph.Graph {
	return graph.RMAT(scale, 8, graph.Graph500Params(), seed)
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graph.Graph{"g1": testGraph(7, 1)}
	}
	if cfg.Engine.NumNodes == 0 {
		cfg.Engine = core.Options{NumNodes: 2, Mode: core.ModeSympleGraph}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCanonicalize(t *testing.T) {
	info := graphInfo{vertices: 128, defaultRoot: 5}

	// Irrelevant parameters are zeroed so they can't fragment the cache.
	q, err := canonicalize(Request{Graph: "g", Algo: "bfs", Root: -1, K: 9, Seed: 77, Iters: 4}, info)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root != 5 || q.K != 0 || q.Seed != 0 || q.Iters != 0 {
		t.Fatalf("bfs canonical %+v", q)
	}
	if q.Mode != "symplegraph" {
		t.Fatalf("default mode %q", q.Mode)
	}

	// Two queries that differ only in ignored fields share a key; a
	// meaningful difference splits them.
	a, _ := canonicalize(Request{Graph: "g", Algo: "kcore", K: 4, Seed: 1}, info)
	b, _ := canonicalize(Request{Graph: "g", Algo: "kcore", K: 4, Seed: 2, Trace: true}, info)
	if cacheKey(a) != cacheKey(b) {
		t.Fatalf("keys differ: %q vs %q", cacheKey(a), cacheKey(b))
	}
	c, _ := canonicalize(Request{Graph: "g", Algo: "kcore", K: 5}, info)
	if cacheKey(a) == cacheKey(c) {
		t.Fatalf("k=4 and k=5 share key %q", cacheKey(a))
	}

	if _, err := canonicalize(Request{Graph: "g", Algo: "dijkstra"}, info); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if _, err := canonicalize(Request{Graph: "g", Algo: "bfs", Root: 1 << 20}, info); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := canonicalize(Request{Graph: "g", Algo: "bfs", Mode: "giraph"}, info); err == nil {
		t.Fatal("bad mode accepted")
	}

	// The allocation-sizing parameters are accepted up to their bound
	// and refused one past it.
	for _, tc := range []struct {
		q  Request
		ok bool
	}{
		{Request{Algo: "kmeans", Centers: 128}, true},
		{Request{Algo: "kmeans", Centers: 129}, false},
		{Request{Algo: "kmeans", Iters: maxKMeansIters}, true},
		{Request{Algo: "kmeans", Iters: maxKMeansIters + 1}, false},
		{Request{Algo: "sampling", Rounds: maxSampleCells / 128}, true},
		{Request{Algo: "sampling", Rounds: maxSampleCells/128 + 1}, false},
		{Request{Algo: "pagerank", Iters: 1 << 40}, true},
	} {
		tc.q.Graph = "g"
		if _, err := canonicalize(tc.q, info); (err == nil) != tc.ok {
			t.Errorf("%+v: err=%v, want accepted=%v", tc.q, err, tc.ok)
		}
	}
}

// TestWorkParametersRefusedBeforeLease: a work parameter out of its
// bound is the client's error, answered 400 before any pool lease — not
// a 500 from deep in the engine, and no cluster built for it.
func TestWorkParametersRefusedBeforeLease(t *testing.T) {
	s := testServer(t, Config{}) // g1: 128 vertices
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	queries := []string{
		"algo=kmeans&centers=5000",
		"algo=kmeans&centers=129",
		"algo=kmeans&iters=1125899906842624",
		"algo=sampling&rounds=1099511627776",
	}
	for _, q := range queries {
		if code, _, body := getResponse(t, ts.URL+"/query?graph=g1&"+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", q, code, body)
		}
	}
	st := s.StatusSnapshot()
	if st.Requests.ServerErrors != 0 || st.Requests.ClientErrors != int64(len(queries)) {
		t.Errorf("requests %+v: want %d client errors and no server error", st.Requests, len(queries))
	}
	if st.Pool.Clusters != 0 {
		t.Errorf("%d clusters built for refused queries", st.Pool.Clusters)
	}
}

func TestResultCacheLRUAndBudgets(t *testing.T) {
	rc := newResultCache(2, 1<<20)
	rc.Put("a", Response{Algo: "a"}, 100, Request{}, mutate.FullRegion())
	rc.Put("b", Response{Algo: "b"}, 100, Request{}, mutate.FullRegion())
	if _, ok := rc.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// "b" is now least recent; inserting "c" evicts it.
	rc.Put("c", Response{Algo: "c"}, 100, Request{}, mutate.FullRegion())
	if _, ok := rc.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := rc.Get("a"); !ok {
		t.Fatal("a evicted instead of b")
	}
	if rc.evictions.Load() != 1 {
		t.Fatalf("evictions %d", rc.evictions.Load())
	}

	// Byte budget: one huge entry forces the others out (but the
	// newest entry itself always stays).
	rc2 := newResultCache(10, 250)
	rc2.Put("x", Response{}, 100, Request{}, mutate.FullRegion())
	rc2.Put("y", Response{}, 100, Request{}, mutate.FullRegion())
	rc2.Put("z", Response{}, 200, Request{}, mutate.FullRegion())
	if rc2.Len() != 1 || rc2.Bytes() != 200 {
		t.Fatalf("len=%d bytes=%d after byte-budget eviction", rc2.Len(), rc2.Bytes())
	}

	// Disabled cache never stores.
	off := newResultCache(-1, 0)
	off.Put("k", Response{}, 10, Request{}, mutate.FullRegion())
	if _, ok := off.Get("k"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestAdmissionShedsBeyondQueue runs the gate at each queue bound a
// Config can ask for: /statusz reports the bound admission enforces
// (a negative MaxQueue means no queue at all), the request past
// MaxInflight plus the queue is shed — at the gate with errOverloaded,
// over HTTP with 429 — and a queued request runs once a slot frees.
func TestAdmissionShedsBeyondQueue(t *testing.T) {
	for _, tc := range []struct{ maxQueue, queue int }{{1, 1}, {-1, 0}} {
		s := testServer(t, Config{MaxInflight: 1, MaxQueue: tc.maxQueue})
		if got := s.StatusSnapshot().Admission.MaxQueue; got != tc.queue {
			t.Fatalf("MaxQueue %d: /statusz max_queue = %d, want %d", tc.maxQueue, got, tc.queue)
		}
		a := s.adm

		rel1, _, err := a.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// The next ones occupy the waiting slots.
		var wg sync.WaitGroup
		admitted := make(chan struct{}, tc.queue)
		for i := 0; i < tc.queue; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel2, _, err := a.admit(context.Background())
				if err != nil {
					t.Errorf("queued admit: %v", err)
					return
				}
				admitted <- struct{}{}
				rel2()
			}()
		}
		// Wait until the goroutines hold the waiting slots.
		for i := 0; a.waiting.Load() < int64(tc.queue) && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
		// The next one finds the queue full and is shed immediately.
		if _, _, err := a.admit(context.Background()); err != errOverloaded {
			t.Fatalf("MaxQueue %d: want errOverloaded, got %v", tc.maxQueue, err)
		}
		if a.rejected.Load() != 1 {
			t.Fatalf("rejected %d", a.rejected.Load())
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?graph=g1&algo=bfs&no_cache=1", nil))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("MaxQueue %d: query beyond MaxInflight got %d, want 429: %s", tc.maxQueue, rec.Code, rec.Body)
		}
		rel1()
		wg.Wait()
		if len(admitted) != tc.queue {
			t.Fatalf("%d of %d queued requests ran", len(admitted), tc.queue)
		}
		if tc.queue == 0 {
			continue
		}

		// A queued request whose deadline fires unwinds cleanly.
		rel3, _, err := a.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		if _, _, err := a.admit(ctx); err != context.DeadlineExceeded {
			t.Fatalf("queued deadline: %v", err)
		}
		cancel()
		rel3()
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, body := get("/query?graph=g1&algo=bfs")
	if code != http.StatusOK {
		t.Fatalf("bfs status %d: %s", code, body)
	}
	var first Response
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Result.Reached == 0 || first.Engine.EdgesTraversed == 0 {
		t.Fatalf("first response %+v", first)
	}

	// Identical query: served from cache, same answer.
	code, body = get("/query?graph=g1&algo=bfs")
	var second Response
	if code != http.StatusOK || json.Unmarshal(body, &second) != nil {
		t.Fatalf("cached status %d", code)
	}
	if !second.Cached || second.Result.Reached != first.Result.Reached {
		t.Fatalf("cached response %+v vs %+v", second, first)
	}

	// no_cache bypasses and recomputes, still the same answer.
	code, body = get("/query?graph=g1&algo=bfs&no_cache=1")
	var third Response
	if code != http.StatusOK || json.Unmarshal(body, &third) != nil {
		t.Fatalf("no_cache status %d", code)
	}
	if third.Cached || third.Result.Reached != first.Result.Reached {
		t.Fatalf("no_cache response %+v", third)
	}

	// Trace capture returns per-phase spans.
	code, body = get("/query?graph=g1&algo=kcore&k=3&trace=1")
	var traced Response
	if code != http.StatusOK || json.Unmarshal(body, &traced) != nil {
		t.Fatalf("trace status %d: %s", code, body)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("trace=1 returned no spans")
	}

	// POST JSON body works too.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"graph":"g1","algo":"cc"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "components") {
		t.Fatalf("POST status %d: %s", resp.StatusCode, b)
	}

	// Client errors.
	if code, _ := get("/query?graph=nope&algo=bfs"); code != http.StatusBadRequest {
		t.Fatalf("unknown graph status %d", code)
	}
	if code, _ := get("/query?graph=g1&algo=dijkstra"); code != http.StatusBadRequest {
		t.Fatalf("unknown algo status %d", code)
	}
	if code, _ := get("/query?graph=g1&algo=bfs&root=bananas"); code != http.StatusBadRequest {
		t.Fatalf("bad root status %d", code)
	}

	// statusz reflects the traffic.
	code, body = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz %d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.OK < 5 || st.Cache.Hits < 1 || st.Cache.HitRate <= 0 {
		t.Fatalf("statusz %+v", st.Requests)
	}
	if st.Algos["bfs"].Engine.Count < 2 || st.Graphs["g1"].Vertices != 1<<7 {
		t.Fatalf("statusz algos/graphs: %+v", st)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
}

func TestDeadlineReturns504AndSlotRecovers(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A 1ms deadline cannot finish a 5000-iteration pagerank (a warm
	// slot clears 50 iterations on this graph in about a millisecond,
	// which made the old iters=50 version a coin flip on idle
	// machines); the request must come back 504, not hang and not 500.
	resp, err := http.Get(ts.URL + "/query?graph=g1&algo=pagerank&iters=5000&deadline_ms=1&no_cache=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d", resp.StatusCode)
	}

	// The poisoned slot is Reset on release: the same entry serves the
	// next query normally.
	resp, err = http.Get(ts.URL + "/query?graph=g1&algo=pagerank&iters=5")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-deadline status %d: %s", resp.StatusCode, b)
	}
}

func TestDrainAnswersInFlightThenRefuses(t *testing.T) {
	s := testServer(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Launch a batch of queries, then drain while some are in flight.
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/query?graph=g1&algo=mis&seed=%d", ts.URL, i+1))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("in-flight query got %d during drain", code)
		}
	}

	// After the drain everything is refused.
	resp, err := http.Get(ts.URL + "/query?graph=g1&algo=bfs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz %d", hr.StatusCode)
	}
}

// TestCoalescingSharesOneRun fires a herd of identical uncached queries
// and checks the singleflight accounting: every response is exactly one
// of engine-run / coalesced / cache-hit, and at least one follower
// shared the leader's run instead of burning a pool slot.
func TestCoalescingSharesOneRun(t *testing.T) {
	s := testServer(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?graph=g1&algo=pagerank&iters=2000")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("herd query got %d", code)
		}
	}

	st := s.StatusSnapshot()
	runs := st.Algos["pagerank"].Engine.Count
	if st.Requests.OK != n {
		t.Fatalf("ok = %d, want %d", st.Requests.OK, n)
	}
	// Exact accounting: each answer came from exactly one source.
	if runs+st.Requests.Coalesced+st.Cache.Hits != n {
		t.Fatalf("runs %d + coalesced %d + hits %d != %d",
			runs, st.Requests.Coalesced, st.Cache.Hits, n)
	}
	if st.Requests.Coalesced == 0 {
		t.Fatalf("no request coalesced (runs %d, hits %d)", runs, st.Cache.Hits)
	}
}

// TestStatuszCounters pins /statusz as absolute, monotonic counters:
// a scrape changes no server state (so concurrent scrapers do not
// disturb each other), a retired ?delta=1 is ignored, and a rate is the
// difference of two scrapes.
func TestStatuszCounters(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?graph=g1&algo=bfs")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	scrape := func(path string) Status {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	for i := 0; i < 3; i++ {
		query()
	}
	// Back-to-back scrapes, one of them with the retired ?delta=1, read
	// the same absolute counters.
	for _, path := range []string{"/statusz", "/statusz?delta=1", "/statusz"} {
		st := scrape(path)
		if st.Requests.Total != 3 || st.Requests.OK != 3 {
			t.Fatalf("%s: requests %+v", path, st.Requests)
		}
		if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
			t.Fatalf("%s: cache %+v", path, st.Cache)
		}
		if st.Pool.DefaultProvider != "local" {
			t.Fatalf("%s: pool %+v", path, st.Pool)
		}
	}

	query()
	if st := scrape("/statusz"); st.Requests.Total != 4 || st.Cache.Hits != 3 {
		t.Fatalf("after a fourth query: %+v / %+v", st.Requests, st.Cache)
	}

	// After a commit every section is populated, and the document's key
	// set is pinned: a field that loses its export (encoding/json drops
	// it) or its tag shows up here.
	if code, _, body := postMutate(t, ts.URL, MutateRequest{Graph: "g1", Mutations: []MutationJSON{{Op: "add_edge", Src: 0, Dst: 1}}}); code != http.StatusOK {
		t.Fatalf("commit: %d %s", code, body)
	}
	if got := statuszKeys(t, ts.URL); !reflect.DeepEqual(got, localStatuszKeys) {
		t.Fatalf("/statusz key paths:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(localStatuszKeys, "\n"))
	}
}

// localStatuszKeys is /statusz's key set on a local server after a
// query and a commit.
var localStatuszKeys = []string{
	"admission.max_inflight",
	"admission.max_queue",
	"admission.running",
	"admission.waiting",
	"algos.bfs.engine.count",
	"algos.bfs.engine.max_ms",
	"algos.bfs.engine.mean_ms",
	"algos.bfs.engine.p50_ms",
	"algos.bfs.engine.p95_ms",
	"algos.bfs.engine.p99_ms",
	"algos.bfs.queue.count",
	"algos.bfs.queue.max_ms",
	"algos.bfs.queue.mean_ms",
	"algos.bfs.queue.p50_ms",
	"algos.bfs.queue.p95_ms",
	"algos.bfs.queue.p99_ms",
	"cache.bytes",
	"cache.entries",
	"cache.evictions",
	"cache.hit_rate",
	"cache.hits",
	"cache.misses",
	"draining",
	"epochs.g1.commits",
	"epochs.g1.epoch",
	"epochs.g1.evictions",
	"epochs.g1.fingerprint",
	"epochs.g1.ops_applied",
	"epochs.g1.window_hi",
	"epochs.g1.window_lo",
	"graphs.g1.edges",
	"graphs.g1.vertices",
	"mutations.applied",
	"mutations.cache_dropped",
	"mutations.cache_promoted",
	"mutations.errors",
	"pool.clusters",
	"pool.default_provider",
	"pool.providers.local",
	"pool.restarts",
	"requests.client_errors",
	"requests.coalesced",
	"requests.ok",
	"requests.rejected",
	"requests.server_errors",
	"requests.timeouts",
	"requests.total",
	"uptime_sec",
}

// statuszKeys scrapes /statusz and lists the key path of every leaf in
// it, sorted and once each: object members join with ".", array
// elements with "[]".
func statuszKeys(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if path != "" {
					k = path + "." + k
				}
				walk(k, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			paths = append(paths, path)
		}
	}
	walk("", doc)
	slices.Sort(paths)
	return slices.Compact(paths)
}
