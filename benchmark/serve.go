package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/server"
)

// The two serving workloads drive an in-process server.New (defaults:
// MaxInflight 2, result cache on, local provider) through a real
// loopback listener. Both are closed loops with one keep-alive client
// per CPU: a client sends its next request when the previous one has
// answered. Open-loop percentiles at a fixed rate did not repeat on a
// two-CPU box; the traced run of serve_read appends an open-loop phase
// so that view exists, ungated.
//
//	serve_read   rounds of {a block of mixed queries over six
//	             algorithms, 30 % from a 24-query hot set; a hot replay
//	             of cached requests}: admission, pool lease, result
//	             cache, canonicalisation and response encode on top of
//	             the engine, reads only;
//	serve_mutate cycles of {POST /mutate with a 32-op batch; refresh a
//	             24-query dashboard; re-read it from the cache}: commit,
//	             chained fingerprint, tracker advance, cache promote and
//	             drop, pool retire and the per-epoch cluster rebuild the
//	             first query of each variant pays.

const (
	graphName   = "g"
	blockSize   = 240 // mixed queries per serve_read round
	replays     = 100 // hot-set replays per serve_read round: 2400 cached requests
	rereads     = 10  // dashboard re-reads per serve_mutate cycle
	openLoopQPS = 40.0
)

var serveScale = map[string]int{"serve_read": 15, "serve_mutate": 13}

// serveEnv is a running server and the client side that talks to it.
type serveEnv struct {
	gs      *graphSet
	srv     *server.Server
	httpSrv *http.Server
	served  chan error // Serve's return value
	base    string
	client  *http.Client
	clients int
	qg      *queryGen
	newS    float64
}

func setupServe(r *run) (*serveEnv, error) {
	scale := serveScale[r.cfg.workload]
	if r.cfg.scale > 0 {
		scale = r.cfg.scale
	}
	gs := &graphSet{seed: r.cfg.seed}
	sp := r.rec.begin("graph.RMAT", 0, 0)
	gs.built[vBase] = timeIt(func() { gs.g[vBase] = rmat(scale, r.cfg.seed) })
	r.rec.end(sp)

	e := &serveEnv{gs: gs, clients: runtime.NumCPU(), served: make(chan error, 1)}
	var err error
	sp = r.rec.begin("server.New", 0, 0)
	e.newS = timeIt(func() {
		e.srv, err = server.New(server.Config{
			Graphs: map[string]*graph.Graph{graphName: gs.g[vBase]},
			Engine: engineOptions(core.ModeSympleGraph),
			Tracer: r.srvTracer,
		})
	})
	r.rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: detached(e.srv.Handler())}
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 2 * e.clients, MaxIdleConnsPerHost: 2 * e.clients,
	}}
	e.qg = newQueryGen(gs.g[vBase], r.cfg.seed)

	// Warm-up: the hot set builds both slots of every graph variant's
	// pool entry and fills its cache entries.
	// A 5xx here is the server's failure, counted like any other; only
	// a request the server could not parse or reach is the benchmark's.
	for _, rep := range e.drain(r, e.qg.hot, "", 0) {
		r.tally(rep)
		if rep.status < http.StatusInternalServerError && !rep.ok() {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %d %s", rep.q, rep.status, rep.msg)
		}
	}
	return e, nil
}

// detached serves h with a request context that keeps its values but is
// never cancelled. net/http cancels a request's context when its handler
// returns; core's cancellation watcher of a run that has already
// completed can still observe that and poison the cluster after the pool
// took it back, and the next query leased onto it answers 500 (about 1
// in 5 000 uncached queries on a two-CPU box; see README, "Known at
// seed"). No workload here sets a deadline or abandons a request, so
// nothing measured depends on cancellation.
func detached(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req.WithContext(context.WithoutCancel(req.Context())))
	})
}

// close drains the server, stops the listener and waits for Serve.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	e.srv.Drain(ctx)
	e.httpSrv.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
}

// reply is one answered (or failed) request as the client saw it.
type reply struct {
	q      query
	status int // 0 = transport error
	msg    string
	resp   server.Response
	lat    time.Duration
}

func (rep reply) ok() bool     { return rep.status == http.StatusOK }
func (rep reply) missed() bool { return rep.ok() && !rep.resp.Cached && !rep.resp.Coalesced }

// get issues one /query and decodes the answer. extra is appended to
// the query string ("no_cache=1").
func (e *serveEnv) get(r *run, q query, extra string, parent int, op int64) reply {
	u := e.base + "/query?" + q.values(graphName).Encode()
	if extra != "" {
		u += "&" + extra
	}
	rep := reply{q: q}
	sp := r.rec.begin("server.query."+q.Algo, parent, op)
	t := time.Now()
	resp, err := e.client.Get(u)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.status = resp.StatusCode
		if err == nil && rep.status == http.StatusOK {
			err = json.Unmarshal(body, &rep.resp)
		} else if err == nil {
			rep.msg = strings.TrimSpace(string(body))
		}
	}
	rep.lat = time.Since(t)
	r.rec.end(sp)
	if err != nil {
		rep.status, rep.msg = 0, err.Error()
	}
	return rep
}

// tally counts a reply as attempted and, unless it is a 200, as
// failed, by status and message.
func (r *run) tally(rep reply) {
	r.attempt(1)
	if !rep.ok() {
		r.fail(fmt.Sprintf("query %s: %d %s", rep.q.Algo, rep.status, rep.msg))
	}
}

// drain sends qs through the closed loop: each client takes the next
// unsent query when its previous one has answered. Replies come back
// in query order.
func (e *serveEnv) drain(r *run, qs []query, extra string, parent int) []reply {
	out := make([]reply, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				out[i] = e.get(r, qs[i], extra, parent, int64(i+1))
			}
		}()
	}
	wg.Wait()
	return out
}

// latencies collects what a serving phase measured.
type latencies struct {
	missMs, hitUs, queueMs, engineMs, overheadMs []float64
	ok, cached                                   int
}

func (l *latencies) add(r *run, reps []reply) {
	for _, rep := range reps {
		r.tally(rep)
		if !rep.ok() {
			continue
		}
		l.ok++
		ms := float64(rep.lat) / float64(time.Millisecond)
		switch {
		case rep.resp.Cached:
			l.cached++
			l.hitUs = append(l.hitUs, 1e3*ms)
		case rep.missed():
			l.missMs = append(l.missMs, ms)
			l.queueMs = append(l.queueMs, rep.resp.QueueWaitMs)
			l.engineMs = append(l.engineMs, rep.resp.EngineMs)
			l.overheadMs = append(l.overheadMs, ms-rep.resp.QueueWaitMs-rep.resp.EngineMs)
		}
	}
}

// setServerMetrics fills the server.* lines every serving phase has.
func (r *run) setServerMetrics(e *serveEnv, l *latencies) {
	st := e.srv.StatusSnapshot()
	r.set("server.new_s", e.newS)
	r.set("server.queue_wait_ms_p50", median(l.queueMs))
	r.set("server.engine_ms_p50", median(l.engineMs))
	r.set("server.overhead_ms_p50", median(l.overheadMs))
	r.set("server.hit_us_p50", median(l.hitUs))
	r.set("server.cache_hit_ratio", st.Cache.HitRate)
	r.set("server.coalesced", float64(st.Requests.Coalesced))
	r.set("server.rejected", float64(st.Requests.Rejected))
	r.set("server.pool_builds", float64(st.Pool.Clusters))
	r.set("run.miss_p99_ms", quantile(l.missMs, 0.99))
}

func runServeRead(r *run) error {
	env, err := repeatSetup(r, func() (*serveEnv, error) { return setupServe(r) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	seconds := r.cfg.seconds
	if r.cfg.trace {
		seconds = 0.3 * r.cfg.seconds
	}
	var lat latencies
	var blockS, roundS, qps, hitQPS, missP50, missP90 []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		rsp := r.rec.begin("round", 0, int64(i+1))
		t0 := time.Now()
		reps := env.drain(r, env.qg.block(i), "", rsp)
		t1 := time.Now()
		before, missed := lat.ok, len(lat.missMs)
		lat.add(r, reps)
		if ms := lat.missMs[missed:]; len(ms) > 0 {
			missP50 = append(missP50, median(ms))
			missP90 = append(missP90, quantile(ms, 0.90))
		}
		var replay latencies
		t2 := time.Now()
		reps = env.drain(r, env.qg.hotReplay(i, replays), "", rsp)
		t3 := time.Now()
		replay.add(r, reps)
		lat.hitUs = append(lat.hitUs, replay.hitUs...)
		r.rec.end(rsp)
		blockS = append(blockS, t1.Sub(t0).Seconds())
		roundS = append(roundS, t1.Sub(t0).Seconds()+t3.Sub(t2).Seconds())
		qps = append(qps, float64(lat.ok-before)/t1.Sub(t0).Seconds())
		hitQPS = append(hitQPS, float64(replay.cached)/t3.Sub(t2).Seconds())
		r.markRSS(i, 3)
	}
	if len(missP50) == 0 || highest(hitQPS) == 0 {
		return fmt.Errorf("no uncached or no cached answer measured")
	}
	r.noteTail("uncached query", "ms", lat.missMs)
	if r.cfg.trace {
		r.setServerMetrics(env, &lat)
		r.openLoop(env, 0.2*r.cfg.seconds)
		es := newEngineSet(env.gs, false, r.rec)
		defer es.close()
		r.engineLayers(es, serveAlgos, serveVariant, env.qg.roots[:8], 0.15*r.cfg.seconds, 0.15*r.cfg.seconds)
		r.probes(env.gs)
	} else {
		r.set("qps", highest(qps))
		r.set("hit_qps", highest(hitQPS))
		r.set("miss_p50_ms", fastest(missP50))
		r.set("miss_p90_ms", fastest(missP90))
		r.set("pass_s", fastest(blockS))
		r.set("cycle_s", fastest(roundS))
		// Stand-ins (see README): this workload has no Gemini pass
		// and, by design, no write.
		r.set("gemini_pass_s", fastest(blockS))
		r.set("mutate_p50_ms", fastest(missP50))
	}
	r.validateServe(env, env.gs.g[vBase], 1)
	return nil
}

func runServeMutate(r *run) error {
	env, err := repeatSetup(r, func() (*serveEnv, error) { return setupServe(r) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	seconds := r.cfg.seconds
	if r.cfg.trace {
		seconds = 0.45 * r.cfg.seconds
	}
	base := env.gs.g[vBase]
	edges := base.Edges()
	dashboard := env.qg.hot
	var lat latencies
	var mutateMs, incMs, refreshS, cycleS, firstMs, qps, hitQPS, missP50, missP90 []float64
	var committed [][]server.MutationJSON
	var promoted, dropped, retired int
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		csp := r.rec.begin("cycle", 0, int64(i+1))
		batch := mutationBatch(base, edges, r.cfg.seed, i)
		t0 := time.Now()
		mresp, d, err := env.mutate(r, batch, csp, int64(i+1))
		r.attempt(1)
		if err != nil {
			r.fail(err.Error())
			r.rec.end(csp)
			continue
		}
		committed = append(committed, batch)
		mutateMs = append(mutateMs, float64(d)/float64(time.Millisecond))
		incMs = append(incMs, mresp.IncMs)
		promoted += mresp.CachePromoted
		dropped += mresp.CacheDropped
		retired += mresp.PoolRetired

		t1 := time.Now()
		reps := env.drain(r, dashboard, "", csp)
		t2 := time.Now()
		before, missed := lat.ok, len(lat.missMs)
		lat.add(r, reps)
		if ms := lat.missMs[missed:]; len(ms) > 0 {
			missP50 = append(missP50, median(ms))
			missP90 = append(missP90, quantile(ms, 0.90))
		}
		qps = append(qps, float64(lat.ok-before)/t2.Sub(t1).Seconds())
		firstMs = append(firstMs, firstPerVariant(reps)...)

		var again latencies
		t3 := time.Now()
		reps = env.drain(r, env.qg.hotReplay(i, rereads), "", csp)
		t4 := time.Now()
		again.add(r, reps)
		lat.hitUs = append(lat.hitUs, again.hitUs...)
		hitQPS = append(hitQPS, float64(again.cached)/t4.Sub(t3).Seconds())
		r.rec.end(csp)

		refreshS = append(refreshS, t2.Sub(t1).Seconds())
		cycleS = append(cycleS, t4.Sub(t0).Seconds())
		r.markRSS(i, 15)
	}
	if len(mutateMs) == 0 || len(missP50) == 0 || highest(hitQPS) == 0 {
		return fmt.Errorf("no commit, no uncached or no cached answer measured")
	}
	r.noteTail("uncached query", "ms", lat.missMs)
	r.noteTail("commit", "ms", mutateMs)
	if r.cfg.trace {
		r.setServerMetrics(env, &lat)
		r.set("server.first_query_ms_p50", median(firstMs))
		r.set("server.inc_ms_p50", median(incMs))
		if promoted+dropped > 0 {
			r.set("server.promote_ratio", float64(promoted)/float64(promoted+dropped))
		}
		r.set("server.cache_dropped", float64(dropped))
		r.set("server.pool_retired", float64(retired))
		es := newEngineSet(env.gs, false, r.rec)
		defer es.close()
		r.engineLayers(es, serveAlgos, serveVariant, env.qg.roots[:8], 0.15*r.cfg.seconds, 0.15*r.cfg.seconds)
		r.probes(env.gs)
	} else {
		// One commit per cycle, so this p50 is over the run's commits,
		// the one timing that is not a best round's.
		r.set("mutate_p50_ms", median(mutateMs))
		r.set("cycle_s", fastest(cycleS))
		r.set("miss_p50_ms", fastest(missP50))
		r.set("miss_p90_ms", fastest(missP90))
		r.set("qps", highest(qps))
		r.set("hit_qps", highest(hitQPS))
		r.set("pass_s", fastest(refreshS))
		// Stand-in (see README): this workload has no Gemini pass.
		r.set("gemini_pass_s", fastest(refreshS))
	}

	// Rebuild the latest epoch locally from the batches the server
	// acknowledged, then compare served answers against direct runs.
	latest := base
	for i, ops := range committed {
		g, err := mutate.Apply(latest, toBatch(ops))
		if err != nil {
			r.attempt(1)
			r.mismatch(fmt.Sprintf("replaying batch %d locally: %v", i, err))
			return nil
		}
		latest = g
	}
	r.validateServe(env, latest, uint64(1+len(committed)))
	return nil
}

// mutate posts one batch and returns the server's report and the
// client-measured commit latency.
func (e *serveEnv) mutate(r *run, ops []server.MutationJSON, parent int, op int64) (server.MutateResponse, time.Duration, error) {
	var out server.MutateResponse
	body, err := json.Marshal(server.MutateRequest{Graph: graphName, Mutations: ops})
	if err != nil {
		return out, 0, fmt.Errorf("mutate: encode: %w", err)
	}
	sp := r.rec.begin("server.mutate", parent, op)
	defer r.rec.end(sp)
	t := time.Now()
	resp, err := e.client.Post(e.base+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, fmt.Errorf("mutate: 0 %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return out, 0, fmt.Errorf("mutate: 0 %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, 0, fmt.Errorf("mutate: %d %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, 0, fmt.Errorf("mutate: decode: %w", err)
	}
	return out, d, nil
}

// firstPerVariant returns, per graph variant, the latency of the
// slowest uncached answer among the first two issued: with two pool
// slots per variant those are the queries that pay the per-epoch
// cluster rebuild after a commit.
func firstPerVariant(reps []reply) []float64 {
	var seen [numVariants]int
	var worst [numVariants]float64
	for _, rep := range reps { // query order = issue order
		if !rep.missed() {
			continue
		}
		v := serveVariant[rep.q.Algo]
		if seen[v] < 2 {
			seen[v]++
			worst[v] = math.Max(worst[v], float64(rep.lat)/float64(time.Millisecond))
		}
	}
	var out []float64
	for v, n := range seen {
		if n > 0 {
			out = append(out, worst[v])
		}
	}
	return out
}

// openLoop sends mixed queries at a fixed rate whatever the server
// does, and times each from the moment it was due, so a stall is
// charged to every request it delayed.
func (r *run) openLoop(e *serveEnv, seconds float64) {
	n := int(seconds * openLoopQPS)
	if n < 1 {
		n = 1
	}
	var qs []query
	for i := 0; len(qs) < n; i++ {
		qs = append(qs, e.qg.block(1<<20+i)...)
	}
	latMs := make([]float64, n)
	lagMs := make([]float64, n)
	okc := make([]bool, n)
	sem := make(chan struct{}, 64) // in-flight cap: far above rate × latency, so it never binds unless the server stalls
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / openLoopQPS * float64(time.Second)))
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			lagMs[i] = float64(time.Since(due)) / float64(time.Millisecond)
			rep := e.get(r, qs[i], "", 0, int64(i+1))
			r.tally(rep)
			okc[i] = rep.ok()
			latMs[i] = float64(time.Since(due)) / float64(time.Millisecond)
		}(i)
	}
	wg.Wait()
	var good []float64
	for i, ok := range okc {
		if ok {
			good = append(good, latMs[i])
		}
	}
	r.set("client.open_p50_ms", median(good))
	r.set("client.open_p99_ms", quantile(good, 0.99))
	r.set("client.gen_lag_p99_ms", quantile(lagMs, 0.99))
	r.set("client.open_fail_share", float64(n-len(good))/float64(n))
}

// validateServe asks the server one uncached query per algorithm and
// compares each answer, and the epoch it reports, with a direct engine
// run on g, the graph the benchmark believes that epoch to be.
func (r *run) validateServe(e *serveEnv, g *graph.Graph, wantEpoch uint64) {
	es := newEngineSet(&graphSet{seed: r.cfg.seed, g: [numVariants]*graph.Graph{vBase: g}}, false, nil)
	defer es.close()
	for _, q := range []query{
		{Algo: "bfs", Root: e.qg.roots[0]},
		{Algo: "sssp", Root: e.qg.roots[1]},
		{Algo: "kcore", K: defaultK},
		{Algo: "mis", Seed: 7},
		{Algo: "cc"},
		{Algo: "pagerank", Iters: defaultPRIters},
	} {
		rep := e.get(r, q, "no_cache=1", 0, 0)
		r.tally(rep)
		if !rep.ok() {
			continue
		}
		r.attempt(1)
		c, err := es.cluster(serveVariant[q.Algo], core.ModeSympleGraph)
		if err != nil {
			r.mismatch("validate " + q.Algo + ": " + err.Error())
			continue
		}
		out, err := runAlgo(c, q.Algo, algoParams{Root: q.Root, Seed: q.Seed, K: q.K, Iters: q.Iters})
		if err != nil {
			r.mismatch("validate " + q.Algo + ": " + err.Error())
			continue
		}
		want := distill(q.Algo, out)
		got := rep.resp.Result
		if math.Abs(got.TopRank-want.TopRank) <= 1e-9*want.TopRank {
			got.TopRank = want.TopRank
		}
		if rep.resp.Epoch != wantEpoch {
			r.mismatch(fmt.Sprintf("validate %s: served epoch %d, want %d", q.Algo, rep.resp.Epoch, wantEpoch))
		} else if !reflect.DeepEqual(got, want) {
			r.mismatch(fmt.Sprintf("validate %s: served %+v, direct run %+v", q.Algo, got, want))
		}
	}
}

// distill reduces a raw result to the summary internal/server returns.
func distill(algo string, o algoOut) server.Result {
	var res server.Result
	switch algo {
	case "bfs":
		for _, d := range o.bfs.Depth {
			if d >= 0 {
				res.Reached++
			}
		}
		res.TopDownSteps, res.BottomUpSteps = o.bfs.TopDownSteps, o.bfs.BottomUpSteps
	case "sssp":
		for _, d := range o.sssp {
			if d < algorithms.InfDist {
				res.Reached++
			}
		}
	case "kcore":
		for _, in := range o.kcore.InCore {
			if in {
				res.Size++
			}
		}
		res.Rounds = o.kcore.Rounds
	case "mis":
		for _, in := range o.mis.InMIS {
			if in {
				res.Size++
			}
		}
		res.Rounds = o.mis.Rounds
	case "cc":
		comps := map[uint32]bool{}
		for _, l := range o.cc {
			comps[l] = true
		}
		res.Components = len(comps)
	case "pagerank":
		for v, rank := range o.pr {
			if rank > res.TopRank {
				res.TopVertex, res.TopRank = v, rank
			}
		}
	}
	return res
}
