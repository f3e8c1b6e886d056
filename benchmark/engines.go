package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/seq"
)

// numNodes is the simulated ring width everywhere: the smallest ring on
// which circulant scheduling has intermediate hops.
const numNodes = 4

// engineOptions is the engine configuration of every cluster the
// benchmark builds and of the servers it starts (which set Mode per
// query). The link model is instant: the program is what is timed, not
// a sleep.
func engineOptions(mode core.Mode) core.Options {
	o := core.Options{
		NumNodes:     numNodes,
		Mode:         mode,
		Workers:      1,
		DepThreshold: core.DefaultDepThreshold,
		NumBuffers:   2,
		Link:         &comm.LinkModel{},
	}
	if mode == core.ModeGemini {
		o.DepThreshold, o.NumBuffers = 0, 1
	}
	return o
}

// variant names a derived form of the workload's R-MAT graph.
type variant int

const (
	vBase    variant = iota // as generated (directed)
	vSym                    // Symmetrize(base)
	vWSym                   // RandomWeights(sym): the batch workloads' SSSP input
	vWServer                // RandomWeights(base, 7): what the server synthesizes for SSSP
	numVariants
)

// batchVariant and serveVariant say which graph each algorithm runs on:
// the batch workloads follow the paper (undirected algorithms on the
// symmetrized graph), the serving reference follows what
// internal/server's variantFor does, so that direct runs reproduce
// served answers.
var batchVariant = map[string]variant{
	"bfs": vBase, "sampling": vBase, "pagerank": vBase,
	"kcore": vSym, "mis": vSym, "kmeans": vSym, "cc": vSym,
	"sssp": vWSym,
}

var serveVariant = map[string]variant{
	"bfs": vBase, "sampling": vBase, "pagerank": vBase, "cc": vBase,
	"kcore": vSym, "mis": vSym, "kmeans": vSym,
	"sssp": vWServer,
}

var (
	depSuite    = []string{"bfs", "kcore", "mis", "kmeans", "sampling"}
	updateSuite = []string{"cc", "sssp", "pagerank"}
	allAlgos    = []string{"bfs", "kcore", "mis", "kmeans", "sampling", "cc", "sssp", "pagerank"}
)

// graphSet holds a base graph and its lazily derived variants, with
// the time each derivation took.
type graphSet struct {
	seed  uint64
	g     [numVariants]*graph.Graph
	built [numVariants]float64 // seconds
}

func (gs *graphSet) get(v variant) *graph.Graph {
	if gs.g[v] != nil {
		return gs.g[v]
	}
	t := time.Now()
	switch v {
	case vSym:
		gs.g[v] = graph.Symmetrize(gs.g[vBase])
	case vWSym:
		sym := gs.get(vSym)
		t = time.Now()
		gs.g[v] = graph.RandomWeights(sym, int64(gs.seed&0x7fffffff)+1)
	case vWServer:
		gs.g[v] = graph.RandomWeights(gs.g[vBase], 7)
	}
	gs.built[v] = time.Since(t).Seconds()
	return gs.g[v]
}

type clusterKey struct {
	v    variant
	mode core.Mode
}

// engineSet owns the clusters built over one graphSet, on the memory
// transport or on loopback TCP.
type engineSet struct {
	gs       *graphSet
	tcp      bool
	clusters map[clusterKey]*core.Cluster
	tcpEps   []*comm.TCPEndpoint
	buildS   []float64 // seconds of each core.NewCluster call
	rec      *recorder
}

func newEngineSet(gs *graphSet, tcp bool, rec *recorder) *engineSet {
	return &engineSet{gs: gs, tcp: tcp, clusters: map[clusterKey]*core.Cluster{}, rec: rec}
}

func (es *engineSet) cluster(v variant, mode core.Mode) (*core.Cluster, error) {
	k := clusterKey{v, mode}
	if c, ok := es.clusters[k]; ok {
		return c, nil
	}
	g := es.gs.get(v)
	opts := engineOptions(mode)
	if es.tcp {
		eps, err := comm.NewTCPClusterLoopback(numNodes)
		if err != nil {
			return nil, fmt.Errorf("tcp loopback ring: %w", err)
		}
		es.tcpEps = append(es.tcpEps, eps...)
		opts.Endpoints = make([]comm.Endpoint, len(eps))
		for i, e := range eps {
			opts.Endpoints[i] = e
		}
	}
	sp := es.rec.begin("core.NewCluster", 0, 0)
	t := time.Now()
	c, err := core.NewCluster(g, opts)
	es.buildS = append(es.buildS, time.Since(t).Seconds())
	es.rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	es.clusters[k] = c
	return c, nil
}

// build makes sure the clusters suite needs exist, in both modes.
func (es *engineSet) build(suite []string, vm map[string]variant) error {
	for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
		for _, a := range suite {
			if _, err := es.cluster(vm[a], mode); err != nil {
				return err
			}
		}
	}
	return nil
}

func (es *engineSet) setTracer(tr *obs.Tracer) {
	for _, c := range es.clusters {
		c.SetTracer(tr)
	}
}

func (es *engineSet) close() {
	for _, c := range es.clusters {
		c.Close()
	}
	for _, e := range es.tcpEps {
		e.Close()
	}
}

// algoParams are the per-pass inputs; each algorithm reads its own.
type algoParams struct {
	Root  int
	Seed  uint64
	K     int
	Iters int // pagerank iterations
}

const (
	kmeansCenters  = 16
	kmeansIters    = 3
	sampleRounds   = 4
	defaultK       = 8
	defaultPRIters = 5
	damping        = 0.85
)

// algoOut keeps an algorithm's raw result for validation.
type algoOut struct {
	bfs    *algorithms.BFSResult
	kcore  *algorithms.KCoreResult
	mis    *algorithms.MISResult
	kmeans *seq.KMeansResult
	sample *algorithms.SampleResult
	cc     []uint32
	sssp   []float32
	pr     []float64
}

func runAlgo(c core.Engine, name string, p algoParams) (algoOut, error) {
	var out algoOut
	var err error
	switch name {
	case "bfs":
		out.bfs, err = algorithms.BFS(c, graph.VertexID(p.Root))
	case "kcore":
		out.kcore, err = algorithms.KCore(c, p.K)
	case "mis":
		out.mis, err = algorithms.MIS(c, p.Seed)
	case "kmeans":
		out.kmeans, err = algorithms.KMeans(c, kmeansCenters, kmeansIters, p.Seed)
	case "sampling":
		out.sample, err = algorithms.Sample(c, p.Seed, sampleRounds)
	case "cc":
		out.cc, err = algorithms.ConnectedComponents(c)
	case "sssp":
		out.sssp, err = algorithms.SSSP(c, graph.VertexID(p.Root))
	case "pagerank":
		out.pr, err = algorithms.PageRank(c, p.Iters, damping)
	default:
		err = fmt.Errorf("unknown algorithm %q", name)
	}
	return out, err
}

// algoRun is one algorithm execution inside a pass.
type algoRun struct {
	name    string
	dur     float64 // wall seconds
	stats   core.RunStats
	mallocs uint64
	edges   int64 // |E| of the graph it ran on
	out     algoOut
	err     error
}

// pass runs suite once in mode and returns each algorithm's run. With
// detail set it also records engine statistics and the allocation
// count per run and keeps the results; the timed passes leave that out.
func (es *engineSet) pass(suite []string, vm map[string]variant, mode core.Mode, p algoParams, detail bool, parent int, op int64) ([]algoRun, float64) {
	runs := make([]algoRun, 0, len(suite))
	var ms runtime.MemStats
	start := time.Now()
	for _, a := range suite {
		c, err := es.cluster(vm[a], mode)
		if err != nil {
			runs = append(runs, algoRun{name: a, err: err})
			continue
		}
		var before uint64
		if detail {
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
		}
		sp := es.rec.begin("algorithms."+a, parent, op)
		t := time.Now()
		out, err := runAlgo(c, a, p)
		r := algoRun{name: a, dur: time.Since(t).Seconds(), err: err}
		es.rec.end(sp)
		if detail {
			runtime.ReadMemStats(&ms)
			r.mallocs = ms.Mallocs - before
			r.stats = c.Stats().Totals
			r.edges = c.Graph().NumEdges()
			r.out = out
		}
		runs = append(runs, r)
	}
	return runs, time.Since(start).Seconds()
}

// passParams derives pass i's inputs. Eight variants cycle, so a run of
// any length measures the same mix of roots and seeds.
func passParams(roots []int, seed uint64, i int) algoParams {
	return algoParams{
		Root:  roots[i%len(roots)],
		Seed:  seed*1000003 + uint64(i%8) + 1,
		K:     defaultK,
		Iters: defaultPRIters,
	}
}

// validateRuns checks one SympleGraph pass and one Gemini pass made
// with the same params: the five dependency algorithms against the
// sequential oracle's validators, CC and SSSP for equality between the
// modes, PageRank within 1e-6 relative. It returns one message per
// failed check and the number of checks made.
func (es *engineSet) validateRuns(vm map[string]variant, p algoParams, sg, gem []algoRun) (fails []string, checks int) {
	check := func(name, mode, msg string) {
		checks++
		if msg != "" {
			fails = append(fails, fmt.Sprintf("validate %s/%s: %s", name, mode, msg))
		}
	}
	gemBy := map[string]algoRun{}
	for _, r := range gem {
		gemBy[r.name] = r
	}
	for _, r := range sg {
		g := es.gs.get(vm[r.name])
		for _, side := range []struct {
			mode string
			run  algoRun
		}{{"symplegraph", r}, {"gemini", gemBy[r.name]}} {
			if side.run.err != nil {
				check(r.name, side.mode, side.run.err.Error())
				continue
			}
			o := side.run.out
			switch r.name {
			case "bfs":
				check(r.name, side.mode, seq.ValidateBFS(g, graph.VertexID(p.Root),
					&seq.BFSResult{Parent: o.bfs.Parent, Depth: o.bfs.Depth}))
			case "kcore":
				check(r.name, side.mode, seq.ValidateKCore(g, o.kcore.InCore, p.K))
			case "mis":
				check(r.name, side.mode, seq.ValidateMIS(g, o.mis.InMIS))
			case "kmeans":
				check(r.name, side.mode, seq.ValidateKMeans(g, o.kmeans))
			case "sampling":
				for _, pick := range o.sample.Picks {
					check(r.name, side.mode, seq.ValidateSample(g, pick))
				}
			}
		}
		other := gemBy[r.name]
		if r.err != nil || other.err != nil {
			continue
		}
		switch r.name {
		case "cc":
			check(r.name, "both", equalU32(r.out.cc, other.out.cc))
		case "sssp":
			check(r.name, "both", equalF32(r.out.sssp, other.out.sssp))
		case "pagerank":
			check(r.name, "both", closeF64(r.out.pr, other.out.pr, 1e-6))
		}
	}
	return fails, checks
}

func equalU32(a, b []uint32) string {
	if len(a) != len(b) {
		return "length differs between modes"
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
	return ""
}

func equalF32(a, b []float32) string {
	if len(a) != len(b) {
		return "length differs between modes"
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("vertex %d: %g vs %g", i, a[i], b[i])
		}
	}
	return ""
}

func closeF64(a, b []float64, rel float64) string {
	if len(a) != len(b) {
		return "length differs between modes"
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > rel*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			return fmt.Sprintf("vertex %d: %g vs %g", i, a[i], b[i])
		}
	}
	return ""
}
