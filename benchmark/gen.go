package main

import (
	"net/url"
	"strconv"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/server"
)

// Every input the program under test sees is generated here from -seed:
// graphs, roots, algorithm seeds, the query stream and the mutation
// batches. The generator is a splitmix64 stream of its own, so the
// inputs do not change with the Go release's math/rand.

type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, purpose, index).
func newRNG(seed uint64, purpose string, index int) *rng {
	r := &rng{s: seed ^ 0x9e3779b97f4a7c15}
	for _, c := range []byte(purpose) {
		r.s = r.s*1099511628211 + uint64(c)
	}
	r.s += uint64(index) * 0xbf58476d1ce4e5b9
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// rmat is the one graph family the benchmark uses: Graph500 R-MAT,
// edge factor 16, as in the paper's synthetic inputs.
func rmat(scale int, seed uint64) *graph.Graph {
	return graph.RMAT(scale, 16, graph.Graph500Params(), int64(seed&0x7fffffffffffffff))
}

// rootPool picks n distinct-ish traversal roots among vertices that
// have out-edges, so no root yields a one-vertex traversal.
func rootPool(g *graph.Graph, seed uint64, n int) []int {
	r := newRNG(seed, "roots", 0)
	nv := g.NumVertices()
	roots := make([]int, 0, n)
	for len(roots) < n {
		v := r.intn(nv)
		if g.OutDegree(graph.VertexID(v)) > 0 {
			roots = append(roots, v)
		}
	}
	return roots
}

// leafPool picks n vertices without out-edges: a BFS from one reads
// one vertex, so its cached answer survives most mutation batches (the
// cache's promote path; an SSSP answer never does, the server treats
// its synthesized weights as reading the whole graph).
func leafPool(g *graph.Graph, seed uint64, n int) []int {
	r := newRNG(seed, "leaves", 0)
	nv := g.NumVertices()
	var leaves []int
	for tries := 0; len(leaves) < n && tries < 64*nv; tries++ {
		v := r.intn(nv)
		if g.OutDegree(graph.VertexID(v)) == 0 {
			leaves = append(leaves, v)
		}
	}
	for len(leaves) < n { // a graph without leaves: fall back to any vertex
		leaves = append(leaves, r.intn(nv))
	}
	return leaves
}

// query is one /query request: the algorithm and the parameters it
// reads. The zero value of a field means "not read by this algorithm".
type query struct {
	Algo  string
	Root  int
	K     int
	Iters int
	Seed  uint64
}

// serveAlgos are the six algorithms the serving workloads query.
var serveAlgos = []string{"bfs", "sssp", "kcore", "mis", "cc", "pagerank"}

func (q query) values(graphName string) url.Values {
	v := url.Values{"graph": {graphName}, "algo": {q.Algo}}
	switch q.Algo {
	case "bfs", "sssp":
		v.Set("root", strconv.Itoa(q.Root))
	case "kcore":
		v.Set("k", strconv.Itoa(q.K))
	case "mis":
		v.Set("seed", strconv.FormatUint(q.Seed, 10))
	case "pagerank":
		v.Set("iters", strconv.Itoa(q.Iters))
	}
	return v
}

// String is the query's canonical text, used for determinism checks
// and as its identity when counting distinct queries.
func (q query) String() string { return q.values("g").Encode() }

// queryGen draws queries for one graph. The seed chooses parameters
// (roots, k, seeds, iteration counts) and the order of requests; how
// many queries of each algorithm a block or the hot set holds is fixed,
// so that two seeds offer the server the same mix of work. Distinct
// non-hot queries far outnumber the server's 256 cache entries, so the
// mixed phase keeps missing; the hot set is small enough to stay
// resident.
type queryGen struct {
	seed   uint64
	roots  []int
	leaves []int
	hot    []query
}

// mix is how many queries of each algorithm a unit holds.
type mix []struct {
	algo string
	n    int
}

var (
	// hotMix is the hot set, which doubles as serve_mutate's dashboard:
	// every algorithm, cc included (it has one key, so it only ever
	// appears here), plus four leaf-rooted BFS queries (see leafPool).
	hotMix = mix{{"bfs", 5}, {"kcore", 4}, {"sssp", 3}, {"mis", 4}, {"pagerank", 3}, {"cc", 1}}
	// The two parameters that set what a query costs are fixed in the
	// hot set, spread over draw's ranges: a refresh of 24 queries is too
	// few to average them out, and its time followed the seed's draw
	// (0.09 to 0.12 s across twelve seeds). Roots, MIS seeds and the
	// order remain the seed's.
	hotK     = []int{4, 12, 20, 28}
	hotIters = []int{3, 5, 8}
	// coldMix is the non-hot 70 % of a block of blockSize queries. The
	// shares put the median of the latency mix inside one algorithm's
	// range rather than between two.
	coldMix = mix{{"bfs", 42}, {"pagerank", 25}, {"kcore", 34}, {"mis", 42}, {"sssp", 25}}
)

const (
	hotSetSize  = 24
	hotPerBlock = 3 // times each hot query appears in a block: 30 % of blockSize
)

func newQueryGen(g *graph.Graph, seed uint64) *queryGen {
	qg := &queryGen{seed: seed, roots: rootPool(g, seed, 256), leaves: leafPool(g, seed, 4)}
	r := newRNG(seed, "hot", 0)
	var perAlgo [][]query
	for _, m := range hotMix {
		qs := make([]query, m.n)
		for i := range qs {
			qs[i] = qg.draw(r, m.algo)
			switch m.algo {
			case "kcore":
				qs[i].K = hotK[i]
			case "pagerank":
				qs[i].Iters = hotIters[i]
			}
		}
		perAlgo = append(perAlgo, qs)
	}
	// Round-robin over the algorithms, so that the first queries of a
	// dashboard refresh touch every graph variant early.
	for i := 0; len(qg.hot) < hotSetSize-len(qg.leaves); i++ {
		for _, qs := range perAlgo {
			if i < len(qs) {
				qg.hot = append(qg.hot, qs[i])
			}
		}
	}
	for _, leaf := range qg.leaves {
		qg.hot = append(qg.hot, query{Algo: "bfs", Root: leaf})
	}
	return qg
}

// draw picks the parameters of one query of algo.
func (qg *queryGen) draw(r *rng, algo string) query {
	q := query{Algo: algo}
	switch algo {
	case "bfs", "sssp":
		q.Root = qg.roots[r.intn(len(qg.roots))]
	case "pagerank":
		q.Iters = 3 + r.intn(6)
	case "kcore":
		q.K = 4 + r.intn(28)
	case "mis":
		q.Seed = 1 + uint64(r.intn(1<<20))
	}
	return q
}

func shuffle(r *rng, qs []query) {
	for i := len(qs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		qs[i], qs[j] = qs[j], qs[i]
	}
}

// block returns the i-th block of blockSize mixed queries: every hot
// query hotPerBlock times and coldMix fresh draws, shuffled.
func (qg *queryGen) block(i int) []query {
	r := newRNG(qg.seed, "block", i)
	qs := make([]query, 0, blockSize)
	for rep := 0; rep < hotPerBlock; rep++ {
		qs = append(qs, qg.hot...)
	}
	for _, m := range coldMix {
		for k := 0; k < m.n; k++ {
			qs = append(qs, qg.draw(r, m.algo))
		}
	}
	shuffle(r, qs)
	return qs
}

// hotReplay returns the hot set n times over, shuffled.
func (qg *queryGen) hotReplay(i, n int) []query {
	r := newRNG(qg.seed, "replay", i)
	qs := make([]query, 0, n*len(qg.hot))
	for rep := 0; rep < n; rep++ {
		qs = append(qs, qg.hot...)
	}
	shuffle(r, qs)
	return qs
}

const mutateOps = 32

// mutationBatch builds the i-th batch for a graph whose root epoch is
// g: a third of the ops remove an edge of g (a removal that an earlier
// batch already made is a no-op, which the server accepts), the rest
// add an edge between two random vertices.
func mutationBatch(g *graph.Graph, edges []graph.Edge, seed uint64, i int) []server.MutationJSON {
	r := newRNG(seed, "mutate", i)
	nv := g.NumVertices()
	ops := make([]server.MutationJSON, mutateOps)
	for j := range ops {
		if j%3 == 2 && len(edges) > 0 {
			e := edges[r.intn(len(edges))]
			ops[j] = server.MutationJSON{Op: "remove_edge", Src: uint32(e.Src), Dst: uint32(e.Dst)}
		} else {
			ops[j] = server.MutationJSON{Op: "add_edge", Src: uint32(r.intn(nv)), Dst: uint32(r.intn(nv)), Weight: 1}
		}
	}
	return ops
}

// toBatch is ops as the mutate package takes them, for replaying
// locally what was posted to the server.
func toBatch(ops []server.MutationJSON) mutate.Batch {
	var b mutate.Batch
	for _, m := range ops {
		op, _ := mutate.OpFromString(m.Op) // mutationBatch writes only known ops
		b.Ops = append(b.Ops, mutate.Mutation{Op: op, Src: graph.VertexID(m.Src), Dst: graph.VertexID(m.Dst), Weight: m.Weight})
	}
	return b
}
