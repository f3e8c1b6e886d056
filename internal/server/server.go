package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// Config configures the query service: the one configuration of the
// front-end, its engine pool, the remote provider and its roster. New
// fills every default once, and each reads the result.
type Config struct {
	// Graphs maps serving names to loaded graphs. Required.
	Graphs map[string]*graph.Graph
	// Engine is the base engine configuration (nodes, mode defaults,
	// resilience policy) every pooled cluster is built with.
	Engine core.Options
	// MaxInflight bounds concurrently executing queries (default 2). It
	// also caps the idle engines the pool keeps per (provider, graph,
	// epoch, variant, mode).
	MaxInflight int
	// MaxQueue bounds queries waiting for an execution slot; beyond
	// it requests are shed with 429 (default 4×MaxInflight; negative
	// means no queue, so every query beyond MaxInflight is shed).
	MaxQueue int
	// CacheEntries / CacheBytes bound the result cache (defaults 256
	// entries, 64 MiB; CacheEntries < 0 disables caching).
	CacheEntries int
	CacheBytes   int64
	// Retention is how many graph epochs stay resolvable for pinned
	// queries (default mutate.DefaultRetention).
	Retention int
	// CheckpointRoot, when set, persists superstep checkpoints per
	// pool slot under this directory (local provider only; remote
	// engines are rebuilt, not resumed).
	CheckpointRoot string
	// Workers lists sgworker control addresses (host:port). When
	// non-empty the remote provider joins the local one and becomes the
	// default: queries run on a TCP ring of worker processes with this
	// server as node 0. Requests pick explicitly with
	// provider=local|remote.
	Workers []string
	// AdvertiseHost is the host workers dial back for the data plane
	// (default 127.0.0.1; set to this machine's reachable address when
	// workers are remote).
	AdvertiseHost string
	// ProbeInterval paces the fleet health prober's probes to healthy
	// and suspect workers (default 500ms), ProbeTimeout bounds one
	// dial+ping round trip (default 1s), ProbeDeadAfter consecutive
	// failures turn a worker dead (default 3; the first already makes it
	// suspect), and ProbeBackoffCap bounds the probe backoff for dead
	// workers (default 5s).
	ProbeInterval   time.Duration
	ProbeTimeout    time.Duration
	ProbeDeadAfter  int
	ProbeBackoffCap time.Duration
	// Logf receives fleet state transitions and degraded-serving
	// notices (default: discarded).
	Logf func(format string, args ...any)
	// Tracer is the shared engine tracer (may be nil).
	Tracer *obs.Tracer
}

// withDefaults returns cfg with every unset field that has a default
// filled in, and MaxQueue clamped to what admission enforces.
func (cfg Config) withDefaults() Config {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	cfg.MaxQueue = max(cfg.MaxQueue, 0)
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.AdvertiseHost == "" {
		cfg.AdvertiseHost = "127.0.0.1"
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.ProbeDeadAfter <= 0 {
		cfg.ProbeDeadAfter = 3
	}
	if cfg.ProbeBackoffCap <= 0 {
		cfg.ProbeBackoffCap = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// perAlgo holds one algorithm's serving histograms: time spent queued
// for admission versus time inside the engine.
type perAlgo struct {
	queue  obs.Histogram
	engine obs.Histogram
}

// flight is one in-progress uncached query that identical concurrent
// requests coalesce onto: the leader runs the engine, publishes resp,
// and closes done; followers wait on done and reuse the answer without
// passing admission.
type flight struct {
	done chan struct{}
	resp Response
	ok   bool // leader succeeded; resp is valid
}

// Server is the graph query service. Create with New, mount Handler on
// an http.Server, and call Drain on shutdown.
type Server struct {
	cfg   Config
	pool  *pool
	adm   *admission
	cache *resultCache
	algos map[string]*perAlgo
	start time.Time

	drainMu  sync.RWMutex // orders handler registration against Drain
	draining atomic.Bool
	wg       sync.WaitGroup // in-flight /query handlers

	flightMu sync.Mutex
	flights  map[string]*flight

	total     atomic.Int64
	ok        atomic.Int64
	clientErr atomic.Int64
	serverErr atomic.Int64
	timeouts  atomic.Int64
	coalesced atomic.Int64
	mutations atomic.Int64
	mutateErr atomic.Int64
}

// New builds the service: defaults filled, graphs indexed, pool
// warm-ready, admission and cache sized from cfg.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	p, err := newPool(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    p,
		adm:     newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		cache:   newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		algos:   make(map[string]*perAlgo, len(algoNames)),
		flights: make(map[string]*flight),
		start:   time.Now(),
	}
	for _, a := range algoNames {
		s.algos[a] = &perAlgo{}
	}
	return s, nil
}

// Handler returns the service's HTTP mux:
//
//	GET|POST /query    run (or serve from cache) one algorithm query
//	POST     /mutate   apply a mutation batch, bumping the graph epoch
//	GET      /statusz  serving state: counters, histograms, cache, pool
//	GET      /healthz  200 while accepting, 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/mutate", s.handleMutate)
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatusSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Drain stops admitting new queries and waits for in-flight handlers to
// finish answering, up to ctx. After Drain the pool is closed; the
// process can exit without cutting off any accepted request.
func (s *Server) Drain(ctx context.Context) error {
	// The write lock fences handler registration: after it is released,
	// every accepted request is in the wait group and every new one
	// sees draining — so Wait cannot race a late Add.
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.pool.close()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %d queries still in flight: %w",
			s.adm.running.Load()+s.adm.waiting.Load(), ctx.Err())
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
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
	s.total.Add(1)

	q, err := parseRequest(r)
	if err != nil {
		s.clientErr.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ge, ok := s.pool.entry(q.Graph)
	if !ok {
		s.clientErr.Add(1)
		http.Error(w, fmt.Sprintf("unknown graph %q (serving %v)", q.Graph, s.pool.graphNames()), http.StatusBadRequest)
		return
	}
	// Pin the version now: epoch 0 resolves to the latest snapshot,
	// and the concrete epoch rides the canonical request from here on,
	// so the cache key, the leased engine and the response all name
	// the same immutable graph even if a mutation commits mid-flight.
	st, err := ge.Resolve(q.Epoch)
	if err != nil {
		s.clientErr.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q.Epoch = st.Epoch()
	q, err = canonicalize(q, st.Info())
	if err != nil {
		s.clientErr.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.Provider != "" && !slices.Contains(s.pool.providers(), q.Provider) {
		s.clientErr.Add(1)
		http.Error(w, fmt.Sprintf("unknown provider %q (have %v)", q.Provider, s.pool.providers()), http.StatusBadRequest)
		return
	}
	key := cacheKey(q)
	pa := s.algos[q.Algo]

	// Cache hits skip admission: they cost microseconds and must stay
	// fast exactly when the engine is saturated. Traced (spans) and
	// no-cache answers are request-specific: no cache, no coalescing.
	shared := !q.NoCache && !q.Trace
	if !shared {
		s.cache.misses.Add(1)
	} else if resp, ok := s.cache.Get(key); ok {
		resp.Cached = true
		resp.QueueWaitMs = 0
		s.ok.Add(1)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	ctx := r.Context()
	if q.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.DeadlineMs)*time.Millisecond)
		defer cancel()
	}

	// Coalesce concurrent identical queries: one leader runs the engine,
	// followers wait for its answer and — like cache hits — never pass
	// admission, so a thundering herd on one key costs one pool slot.
	// Provider is not part of the key: results are provider-independent,
	// so requests naming different providers still coalesce.
	var lead *flight
	if shared {
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			select {
			case <-f.done:
				if f.ok {
					resp := f.resp
					resp.Coalesced = true
					resp.QueueWaitMs = 0
					s.coalesced.Add(1)
					s.ok.Add(1)
					writeJSON(w, http.StatusOK, resp)
					return
				}
				// Leader failed; run independently below — a transient
				// engine fault on the leader shouldn't fail the herd.
			case <-ctx.Done():
				s.timeouts.Add(1)
				http.Error(w, "deadline expired waiting for coalesced result", http.StatusGatewayTimeout)
				return
			}
		} else {
			lead = &flight{done: make(chan struct{})}
			s.flights[key] = lead
			s.flightMu.Unlock()
			defer func() {
				s.flightMu.Lock()
				delete(s.flights, key)
				s.flightMu.Unlock()
				close(lead.done)
			}()
		}
	}

	release, wait, err := s.adm.admit(ctx)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			ra := retryAfter(pa.engine.Snapshot().Mean(), s.adm.waiting.Load(), int64(s.cfg.MaxInflight))
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(ra.Seconds())))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		s.timeouts.Add(1)
		http.Error(w, fmt.Sprintf("deadline expired while queued (waited %v)", wait), http.StatusGatewayTimeout)
		return
	}
	defer release()
	pa.queue.Observe(wait)

	resp, status, err := s.execute(ctx, q, key)
	if err != nil {
		msg := classifyMessage(err)
		switch {
		case status == http.StatusGatewayTimeout:
			s.timeouts.Add(1)
		case status >= 500:
			s.serverErr.Add(1)
		default:
			s.clientErr.Add(1)
		}
		http.Error(w, msg, status)
		return
	}
	resp.QueueWaitMs = durMs(wait)
	if lead != nil {
		lead.resp, lead.ok = resp, true
	}
	s.ok.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// execute leases an engine from the requested provider, binds the
// request's context / tracer / checkpoint tag, runs the algorithm, and
// populates the cache.
func (s *Server) execute(ctx context.Context, q Request, key string) (Response, int, error) {
	v := variantFor(q.Algo)
	mode, _ := cliutil.ParseMode(q.Mode) // canonicalize validated it
	slot, err := s.pool.lease(q.Provider, q.Graph, q.Epoch, v, mode)
	if err != nil {
		return Response{}, http.StatusInternalServerError, err
	}
	defer s.pool.release(slot)

	var reqTracer *obs.Tracer
	if q.Trace {
		reqTracer = obs.NewCapturingTracer(4096)
	}
	if err := slot.eng.BindQuery(ctx, q, key, reqTracer); err != nil {
		return Response{}, http.StatusInternalServerError, err
	}

	statsBefore := slot.eng.Stats().Restarts
	engineStart := time.Now()
	result, region, err := RunAlgorithm(slot.eng, q)
	engineDur := time.Since(engineStart)
	s.algos[q.Algo].engine.Observe(engineDur)
	if err != nil {
		if ctx.Err() != nil {
			return Response{}, http.StatusGatewayTimeout, ctx.Err()
		}
		return Response{}, http.StatusInternalServerError, err
	}

	degraded := false
	if dg, ok := slot.eng.(interface{ Degraded() bool }); ok {
		degraded = dg.Degraded()
	}
	// SSSP over synthesized weights reads more than it reaches: the
	// seeded weights are positional, so any topology change reshuffles
	// weights on unrelated edges. Its read-set is the whole graph.
	if q.Algo == "sssp" {
		if info, ok := s.pool.info(q.Graph); ok && !info.weighted {
			region = mutate.FullRegion()
		}
	}

	run := slot.eng.Stats().Totals
	resp := Response{
		Graph:    q.Graph,
		Algo:     q.Algo,
		Mode:     q.Mode,
		Epoch:    q.Epoch,
		Provider: slot.provider,
		Degraded: degraded,
		Result:   result,
		Engine: engineStats{
			EdgesTraversed:  run.EdgesTraversed,
			UpdateBytes:     run.UpdateBytes,
			DependencyBytes: run.DependencyBytes,
			ControlBytes:    run.ControlBytes,
			Restarts:        slot.eng.Stats().Restarts - statsBefore,
		},
		EngineMs: durMs(engineDur),
	}
	if reqTracer != nil {
		resp.Trace = traceSpans(reqTracer)
	}

	// Cache the canonical answer without request-specific fields; the
	// marshaled size feeds the byte budget. Degraded is a property of
	// the serving moment, not the answer — a cache hit after the fleet
	// recovers must not claim degradation.
	cached := resp
	cached.Trace = nil
	cached.QueueWaitMs = 0
	cached.Degraded = false
	if !q.NoCache {
		if b, err := json.Marshal(cached); err == nil {
			s.cache.Put(key, cached, int64(len(b)), q, region)
		}
	}
	return resp, http.StatusOK, nil
}

// classifyMessage renders an engine failure with the typed-error
// context (blocked node, phase, awaited peer) instead of a flat %v.
func classifyMessage(err error) string {
	_, msg := cliutil.ErrorReport(err)
	return msg
}

func traceSpans(tr *obs.Tracer) []traceSpan {
	sums := tr.Summaries()
	spans := make([]traceSpan, 0, len(sums))
	for _, ps := range sums {
		spans = append(spans, traceSpan{
			Node:  ps.Node,
			Phase: ps.Phase.String(),
			Count: ps.Hist.Count,
			P50Ms: durMs(ps.Hist.P50),
			P95Ms: durMs(ps.Hist.P95),
			MaxMs: durMs(ps.Hist.Max),
		})
	}
	return spans
}

// histJSON summarizes a histogram for /statusz.
type histJSON struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

func histToJSON(h *obs.Histogram) histJSON {
	s := h.Snapshot()
	return histJSON{
		Count:  s.Count,
		P50Ms:  durMs(s.P50),
		P95Ms:  durMs(s.P95),
		P99Ms:  durMs(s.P99),
		MaxMs:  durMs(s.Max),
		MeanMs: durMs(s.Mean()),
	}
}

// Status is the /statusz document.
type Status struct {
	UptimeSec float64                `json:"uptime_sec"`
	Draining  bool                   `json:"draining"`
	Graphs    map[string]graphStatus `json:"graphs"`
	Requests  requestCounters        `json:"requests"`
	Cache     cacheCounters          `json:"cache"`
	Pool      poolCounters           `json:"pool"`
	Admission admissionCounters      `json:"admission"`
	Algos     map[string]algoStats   `json:"algos"`
	// Epochs reports each graph's version chain: current epoch and
	// fingerprint, retained window and commit counters.
	Epochs map[string]epochStatus `json:"epochs"`
	// Mutations counts /mutate commits (and rejected batches).
	Mutations mutationCounters `json:"mutations"`
	// Fleet reports worker health per provider that tracks a roster
	// (the remote provider); absent for purely local serving.
	Fleet map[string]fleetStatus `json:"fleet,omitempty"`
}

type mutationCounters struct {
	Applied int64 `json:"applied"`
	Errors  int64 `json:"errors"`
	// CachePromoted/CacheDropped count cache entries carried across
	// epochs versus invalidated by mutation regions.
	CachePromoted int64 `json:"cache_promoted"`
	CacheDropped  int64 `json:"cache_dropped"`
}

type graphStatus struct {
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
}

type requestCounters struct {
	Total        int64 `json:"total"`
	OK           int64 `json:"ok"`
	ClientErrors int64 `json:"client_errors"`
	ServerErrors int64 `json:"server_errors"`
	Timeouts     int64 `json:"timeouts"`
	Rejected     int64 `json:"rejected"`
	Coalesced    int64 `json:"coalesced"`
}

type cacheCounters struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
}

type poolCounters struct {
	Clusters        int            `json:"clusters"`
	Restarts        int64          `json:"restarts"`
	Providers       map[string]int `json:"providers"` // built slots per provider
	DefaultProvider string         `json:"default_provider"`
}

type admissionCounters struct {
	Running     int64 `json:"running"`
	Waiting     int64 `json:"waiting"`
	MaxInflight int   `json:"max_inflight"`
	MaxQueue    int   `json:"max_queue"`
}

type algoStats struct {
	Queue  histJSON `json:"queue"`
	Engine histJSON `json:"engine"`
}

// StatusSnapshot assembles the current serving state: the one listing
// of the serving counters, behind both /statusz and the "server" entry
// of sgserve's /debug/metrics. Every counter is monotonic, so a rate is
// the difference of two scrapes; reading it changes no state.
func (s *Server) StatusSnapshot() Status {
	st := Status{
		UptimeSec: time.Since(s.start).Seconds(),
		Draining:  s.draining.Load(),
		Graphs:    make(map[string]graphStatus),
		Requests: requestCounters{
			Total:        s.total.Load(),
			OK:           s.ok.Load(),
			ClientErrors: s.clientErr.Load(),
			ServerErrors: s.serverErr.Load(),
			Timeouts:     s.timeouts.Load(),
			Rejected:     s.adm.rejected.Load(),
			Coalesced:    s.coalesced.Load(),
		},
		Cache: cacheCounters{
			Hits:      s.cache.hits.Load(),
			Misses:    s.cache.misses.Load(),
			Evictions: s.cache.evictions.Load(),
			Entries:   s.cache.Len(),
			Bytes:     s.cache.Bytes(),
		},
		Pool: poolCounters{
			Clusters:        s.pool.slots(),
			Restarts:        s.pool.restarts(),
			Providers:       s.pool.providerSlots(),
			DefaultProvider: s.pool.defaultProvider(),
		},
		Admission: admissionCounters{
			Running:     s.adm.running.Load(),
			Waiting:     s.adm.waiting.Load(),
			MaxInflight: s.cfg.MaxInflight,
			MaxQueue:    s.cfg.MaxQueue,
		},
		Algos:  make(map[string]algoStats),
		Epochs: make(map[string]epochStatus),
		Mutations: mutationCounters{
			Applied:       s.mutations.Load(),
			Errors:        s.mutateErr.Load(),
			CachePromoted: s.cache.promoted.Load(),
			CacheDropped:  s.cache.dropped.Load(),
		},
	}
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(lookups)
	}
	if s.pool.remote != nil {
		st.Fleet = map[string]fleetStatus{"remote": s.pool.remote.fleet()}
	}
	for _, n := range s.pool.graphNames() { // already sorted
		info, _ := s.pool.info(n)
		st.Graphs[n] = graphStatus{Vertices: info.vertices, Edges: info.edges}
		if ge, ok := s.pool.entry(n); ok {
			st.Epochs[n] = ge.epochStatus()
		}
	}
	for name, pa := range s.algos {
		if pa.queue.Snapshot().Count == 0 && pa.engine.Snapshot().Count == 0 {
			continue
		}
		st.Algos[name] = algoStats{Queue: histToJSON(&pa.queue), Engine: histToJSON(&pa.engine)}
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
