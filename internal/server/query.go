// Package server is the graph query service: a long-running daemon that
// loads and partitions graphs once, keeps a pool of warm clusters, and
// answers algorithm queries over HTTP. It layers admission control (a
// bounded queue with backpressure), a result cache keyed by canonical
// query parameters, and per-request engine scheduling — deadline, trace
// capture, resilience — on top of the core engine, so one process can
// serve many queries without re-paying graph load and partition cost.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/algorithms"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// Request is one algorithm query. Fields irrelevant to the requested
// algorithm are ignored and zeroed by canonicalization so that, e.g.,
// two BFS queries differing only in -k share a cache entry.
//
// Canonicalization also bounds the parameters that size a query's
// allocations (see each field), so that a client's choice is a 400, not
// a failure deep in the engine or an allocation no deadline can stop.
// PageRank's Iters allocates nothing and stays unbounded.
type Request struct {
	Graph   string `json:"graph"`
	Algo    string `json:"algo"`
	Mode    string `json:"mode"`    // symplegraph (default) or gemini
	Root    int    `json:"root"`    // bfs/sssp; -1 = highest out-degree vertex
	K       int    `json:"k"`       // kcore
	Centers int    `json:"centers"` // kmeans; 0 = sqrt(|V|), at most |V|
	Iters   int    `json:"iters"`   // kmeans outer iterations (at most maxKMeansIters) / pagerank iterations
	Rounds  int    `json:"rounds"`  // sampling; Rounds·|V| at most maxSampleCells
	Seed    uint64 `json:"seed"`    // mis/kmeans/sampling
	// Epoch pins the query to one graph version; 0 resolves to the
	// latest at admission time and is rewritten to the concrete epoch,
	// so the cache key and the leased engine always agree on the
	// version, even when a mutation commits mid-flight.
	Epoch uint64 `json:"epoch"`

	// Per-request scheduling knobs; never part of the cache key.
	// Provider stays out of the key deliberately: results are
	// deterministic and independent of where the engine runs, so a
	// remote answer satisfies a later local query and vice versa.
	DeadlineMs int    `json:"deadline_ms"` // 0 = no per-request deadline
	NoCache    bool   `json:"no_cache"`    // bypass the result cache
	Trace      bool   `json:"trace"`       // capture a per-request phase trace
	Provider   string `json:"provider"`    // engine provider ("local", "remote"); "" = server default
}

// The bounds canonicalize puts on a query's allocation-sizing
// parameters: K-means keeps one int64 per iteration on every node, and
// sampling a table of Rounds·|V| 4-byte picks on node 0.
const (
	maxKMeansIters = 1 << 10
	maxSampleCells = 1 << 24
)

// algoNames is the fixed serving vocabulary; per-algo histograms and the
// dispatch switch both range over it.
var algoNames = []string{"bfs", "sssp", "kcore", "mis", "kmeans", "sampling", "pagerank", "cc"}

// parseRequest decodes a query from either the URL query string (GET)
// or a JSON body (POST).
func parseRequest(r *http.Request) (Request, error) {
	if r.Method == http.MethodPost {
		var q Request
		q.Root = -1
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			return q, fmt.Errorf("bad JSON body: %w", err)
		}
		return q, nil
	}
	return parseQueryValues(r.URL.Query())
}

func parseQueryValues(v url.Values) (Request, error) {
	q := Request{Root: -1}
	q.Graph = v.Get("graph")
	q.Algo = v.Get("algo")
	q.Mode = v.Get("mode")
	var err error
	geti := func(key string, dst *int) {
		if s := v.Get(key); s != "" && err == nil {
			n, e := strconv.Atoi(s)
			if e != nil {
				err = fmt.Errorf("bad %s=%q", key, s)
				return
			}
			*dst = n
		}
	}
	geti("root", &q.Root)
	geti("k", &q.K)
	geti("centers", &q.Centers)
	geti("iters", &q.Iters)
	geti("rounds", &q.Rounds)
	geti("deadline_ms", &q.DeadlineMs)
	getu := func(key string, dst *uint64) {
		if s := v.Get(key); s != "" && err == nil {
			n, e := strconv.ParseUint(s, 10, 64)
			if e != nil {
				err = fmt.Errorf("bad %s=%q", key, s)
				return
			}
			*dst = n
		}
	}
	getu("seed", &q.Seed)
	getu("epoch", &q.Epoch)
	q.NoCache = v.Get("no_cache") == "1" || v.Get("no_cache") == "true"
	q.Trace = v.Get("trace") == "1" || v.Get("trace") == "true"
	q.Provider = v.Get("provider")
	return q, err
}

// canonicalize validates q against the loaded graph, fills defaults, and
// zeroes every parameter the algorithm does not read, so the cache key
// identifies the work actually performed. info supplies graph-derived
// defaults (the fallback BFS root, |V| for the kmeans center count).
func canonicalize(q Request, info graphInfo) (Request, error) {
	if !slices.Contains(algoNames, q.Algo) {
		return q, fmt.Errorf("unknown algo %q (want one of %v)", q.Algo, algoNames)
	}
	if q.Mode == "" {
		q.Mode = "symplegraph"
	}
	if _, err := cliutil.ParseMode(q.Mode); err != nil {
		return q, err
	}

	c := Request{Graph: q.Graph, Algo: q.Algo, Mode: q.Mode, Epoch: q.Epoch,
		DeadlineMs: q.DeadlineMs, NoCache: q.NoCache, Trace: q.Trace, Provider: q.Provider}
	switch q.Algo {
	case "bfs", "sssp":
		c.Root = q.Root
		if c.Root < 0 {
			c.Root = info.defaultRoot
		}
		if c.Root >= info.vertices {
			return q, fmt.Errorf("root %d out of range (graph has %d vertices)", c.Root, info.vertices)
		}
	case "kcore":
		c.K = q.K
		if c.K <= 0 {
			c.K = 8
		}
	case "mis":
		c.Seed = defaultSeed(q.Seed)
	case "kmeans":
		c.Seed = defaultSeed(q.Seed)
		c.Centers = q.Centers
		if c.Centers <= 0 {
			c.Centers = int(math.Sqrt(float64(info.vertices)))
		}
		if c.Centers > info.vertices {
			return q, fmt.Errorf("centers=%d exceeds the graph's %d vertices", c.Centers, info.vertices)
		}
		c.Iters = q.Iters
		if c.Iters <= 0 {
			c.Iters = 3
		}
		if c.Iters > maxKMeansIters {
			return q, fmt.Errorf("kmeans iters=%d exceeds the bound of %d", c.Iters, maxKMeansIters)
		}
	case "sampling":
		c.Seed = defaultSeed(q.Seed)
		c.Rounds = q.Rounds
		if c.Rounds <= 0 {
			c.Rounds = 4
		}
		if c.Rounds > maxSampleCells/max(info.vertices, 1) {
			return q, fmt.Errorf("sampling rounds=%d over %d vertices exceeds the bound of %d picks", c.Rounds, info.vertices, maxSampleCells)
		}
	case "pagerank":
		c.Iters = q.Iters
		if c.Iters <= 0 {
			c.Iters = 20
		}
	case "cc":
		// graph and mode only
	}
	return c, nil
}

// Prepare is the front half of a query for a caller that builds its own
// engine (symplegraph): q canonicalized against base as a one-epoch
// graph entry, and the variant that epoch materializes for q.Algo.
func Prepare(q Request, base *graph.Graph) (Request, *graph.Graph, error) {
	st := newGraphEntry(q.Graph, mutate.NewStoreAt(base, 1, "", 1)).Latest() // never shipped, so never fingerprinted
	q, err := canonicalize(q, st.Info())
	if err != nil {
		return q, nil, err
	}
	return q, st.Graph(variantFor(q.Algo)), nil
}

func defaultSeed(s uint64) uint64 {
	if s == 0 {
		return 42
	}
	return s
}

// cacheKey identifies the cache entry (and, with the cluster shape, the
// checkpoint tag) for a canonicalized request. Scheduling knobs are deliberately absent: a
// traced query and an untraced one compute the same answer.
func cacheKey(q Request) string {
	return fmt.Sprintf("g=%s|e=%d|algo=%s|mode=%s|root=%d|k=%d|centers=%d|iters=%d|rounds=%d|seed=%d",
		q.Graph, q.Epoch, q.Algo, q.Mode, q.Root, q.K, q.Centers, q.Iters, q.Rounds, q.Seed)
}

// variantFor maps an algorithm to the graph variant it runs on:
// undirected algorithms need the symmetrized graph, SSSP a weighted one.
func variantFor(algo string) graphVariant {
	switch algo {
	case "mis", "kcore", "kmeans":
		return variantUndirected
	case "sssp":
		return variantWeighted
	default:
		return variantDirected
	}
}

// Result is the algorithm-specific part of a response; only the fields
// the queried algorithm produces are populated.
type Result struct {
	Reached       int     `json:"reached,omitempty"`         // bfs, sssp
	TopDownSteps  int     `json:"top_down_steps,omitempty"`  // bfs
	BottomUpSteps int     `json:"bottom_up_steps,omitempty"` // bfs
	Size          int     `json:"size,omitempty"`            // mis, kcore
	Rounds        int     `json:"rounds,omitempty"`          // mis, kcore
	DistSums      []int64 `json:"dist_sums,omitempty"`       // kmeans
	ExactPicks    int64   `json:"exact_picks,omitempty"`     // sampling
	Components    int     `json:"components,omitempty"`      // cc
	TopVertex     int     `json:"top_vertex,omitempty"`      // pagerank
	TopRank       float64 `json:"top_rank,omitempty"`        // pagerank
}

// engineStats is the paper's per-run metric set, attached to every
// uncached response.
type engineStats struct {
	EdgesTraversed  int64 `json:"edges_traversed"`
	UpdateBytes     int64 `json:"update_bytes"`
	DependencyBytes int64 `json:"dependency_bytes"`
	ControlBytes    int64 `json:"control_bytes"`
	Restarts        int64 `json:"restarts"`
}

// traceSpan is one (node, phase) aggregate from a per-request capture.
type traceSpan struct {
	Node  int     `json:"node"`
	Phase string  `json:"phase"`
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Response is the full answer to one query.
type Response struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	Mode  string `json:"mode"`
	// Epoch is the graph version this answer was computed on.
	Epoch     uint64      `json:"epoch,omitempty"`
	Result    Result      `json:"result"`
	Engine    engineStats `json:"engine"`
	Cached    bool        `json:"cached"`
	Coalesced bool        `json:"coalesced,omitempty"`
	Provider  string      `json:"provider,omitempty"`
	// Degraded marks an answer computed below the requested fleet
	// width — fewer ring members than configured workers (or none,
	// served in-process) because part of the fleet was unhealthy.
	Degraded    bool        `json:"degraded,omitempty"`
	QueueWaitMs float64     `json:"queue_wait_ms"`
	EngineMs    float64     `json:"engine_ms"`
	Trace       []traceSpan `json:"trace,omitempty"`
}

// RunAlgorithm dispatches a canonicalized request on an engine and
// distills the algorithm's answer into the compact Result. The engine's
// graph is the variant variantFor(q.Algo) selected. The same dispatch
// runs on every machine of a distributed engine — the canonical request
// is the SPMD program selector, so front-end, workers and every
// symplegraph -tcp-id process issue identical Run sequences.
//
// The returned Region is the answer's read-set signature, for
// delta-keyed cache invalidation: traversals from a root read only the
// vertices they reach (a mutation touching no reached vertex cannot
// change the answer — an arc out of an unreached vertex never relaxes,
// and an arc into one would have made it reached), so they report the
// reached set; whole-graph algorithms report the full region.
func RunAlgorithm(c core.Engine, q Request) (Result, mutate.Region, error) {
	var res Result
	region := mutate.FullRegion()
	switch q.Algo {
	case "bfs":
		out, err := algorithms.BFS(c, graph.VertexID(q.Root))
		if err != nil {
			return res, region, err
		}
		var reads mutate.Region
		for v, d := range out.Depth {
			if d >= 0 {
				res.Reached++
				reads.Add(graph.VertexID(v))
			}
		}
		region = reads
		res.TopDownSteps, res.BottomUpSteps = out.TopDownSteps, out.BottomUpSteps
	case "sssp":
		dist, err := algorithms.SSSP(c, graph.VertexID(q.Root))
		if err != nil {
			return res, region, err
		}
		var reads mutate.Region
		for v, d := range dist {
			if d < algorithms.InfDist {
				res.Reached++
				reads.Add(graph.VertexID(v))
			}
		}
		region = reads
	case "kcore":
		out, err := algorithms.KCore(c, q.K)
		if err != nil {
			return res, region, err
		}
		for _, in := range out.InCore {
			if in {
				res.Size++
			}
		}
		res.Rounds = out.Rounds
	case "mis":
		out, err := algorithms.MIS(c, q.Seed)
		if err != nil {
			return res, region, err
		}
		for _, in := range out.InMIS {
			if in {
				res.Size++
			}
		}
		res.Rounds = out.Rounds
	case "kmeans":
		out, err := algorithms.KMeans(c, q.Centers, q.Iters, q.Seed)
		if err != nil {
			return res, region, err
		}
		res.DistSums = out.DistSums
		res.Rounds = out.Rounds
	case "sampling":
		out, err := algorithms.Sample(c, q.Seed, q.Rounds)
		if err != nil {
			return res, region, err
		}
		res.ExactPicks = out.ExactPicks
		res.Rounds = q.Rounds
	case "pagerank":
		rank, err := algorithms.PageRank(c, q.Iters, 0.85)
		if err != nil {
			return res, region, err
		}
		for v, r := range rank {
			if r > res.TopRank {
				res.TopVertex, res.TopRank = v, r
			}
		}
	case "cc":
		labels, err := algorithms.ConnectedComponents(c)
		if err != nil {
			return res, region, err
		}
		comps := map[uint32]bool{}
		for _, l := range labels {
			comps[l] = true
		}
		res.Components = len(comps)
	default:
		return res, region, fmt.Errorf("unknown algo %q", q.Algo)
	}
	return res, region, nil
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
