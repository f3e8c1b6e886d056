package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/seq"
)

// testConfigs is the cross-mode configuration grid: both modes, several
// cluster sizes, with and without differentiated propagation and double
// buffering, and one multi-worker config.
var testConfigs = []core.Options{
	{NumNodes: 1, Mode: core.ModeGemini},
	{NumNodes: 1, Mode: core.ModeSympleGraph},
	{NumNodes: 2, Mode: core.ModeGemini},
	{NumNodes: 2, Mode: core.ModeSympleGraph, DepThreshold: 0, NumBuffers: 1},
	{NumNodes: 4, Mode: core.ModeGemini, Workers: 2},
	{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 0, NumBuffers: 2},
	{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 32, NumBuffers: 2, Workers: 2},
	{NumNodes: 5, Mode: core.ModeSympleGraph, DepThreshold: 8, NumBuffers: 3},
}

func cfgName(o core.Options) string {
	return fmt.Sprintf("p=%d/%v/thr=%d/B=%d/w=%d", o.NumNodes, o.Mode, o.DepThreshold, o.NumBuffers, o.Workers)
}

func forAllConfigs(t *testing.T, g *graph.Graph, fn func(t *testing.T, c *core.Cluster)) {
	t.Helper()
	for _, opts := range testConfigs {
		t.Run(cfgName(opts), func(t *testing.T) {
			c, err := core.NewCluster(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fn(t, c)
		})
	}
}

func TestBFSMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": graph.RMAT(10, 8, graph.Graph500Params(), 1),
		"sym":  graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 2)),
		"grid": graph.Grid(16, 16),
		"star": graph.Star(600),
	}
	for name, g := range graphs {
		root, _ := graph.LargestOutDegreeVertex(g)
		t.Run(name, func(t *testing.T) {
			forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
				res, err := BFS(c, root)
				if err != nil {
					t.Fatal(err)
				}
				if msg := seq.ValidateBFS(g, root, &seq.BFSResult{Depth: res.Depth, Parent: res.Parent}); msg != "" {
					t.Fatal(msg)
				}
			})
		})
	}
}

func TestBFSUsesBothDirections(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(11, 16, graph.Graph500Params(), 3))
	root, _ := graph.LargestOutDegreeVertex(g)
	for _, B := range []int{1, 2, 3} {
		tr := obs.NewTracer()
		c, err := core.NewCluster(g, core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 32, NumBuffers: B, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := BFS(c, root)
		if err != nil {
			t.Fatal(err)
		}
		if res.BottomUpSteps == 0 {
			t.Fatalf("adaptive BFS never went bottom-up: %+v", res)
		}
		if res.TopDownSteps == 0 {
			t.Fatalf("adaptive BFS never went top-down: %+v", res)
		}
		// Every collective call is one Barrier span on each node: per
		// level the frontier sync alone — the direction statistic is
		// computed from the replicated frontier and the pass ends in no
		// collective — then two gathers.
		levels := int64(res.TopDownSteps + res.BottomUpSteps)
		var barriers int64
		for _, ps := range c.Stats().Phases {
			if ps.Phase == obs.PhaseBarrier {
				barriers += ps.Hist.Count
			}
		}
		if want := 4 * (levels + 2); barriers != want {
			t.Fatalf("B=%d: %d Barrier spans over %d levels, want %d", B, barriers, levels, want)
		}
	}
}

func TestBFSRejectsBadRoot(t *testing.T) {
	g := graph.Ring(16)
	c, _ := core.NewCluster(g, core.Options{NumNodes: 2})
	defer c.Close()
	if _, err := BFS(c, 99); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestMISMatchesSequential(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 4))
	const seed = 7
	want := seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), seed))
	forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
		res, err := MIS(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		if msg := seq.ValidateMIS(g, res.InMIS); msg != "" {
			t.Fatal(msg)
		}
		for v := range want {
			if res.InMIS[v] != want[v] {
				t.Fatalf("vertex %d: got %v, want %v", v, res.InMIS[v], want[v])
			}
		}
		if res.Rounds < 1 {
			t.Fatal("no rounds recorded")
		}
	})
}

func TestKCoreMatchesSequential(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 5))
	core8 := seq.Coreness(g)
	for _, k := range []int{2, 4, 8} {
		want, _ := seq.KCoreIterative(g, k)
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
				res, err := KCore(c, k)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.InCore[v] != want[v] {
						t.Fatalf("vertex %d: got %v, want %v (coreness %d)", v, res.InCore[v], want[v], core8[v])
					}
				}
			})
		})
	}
}

func TestKCoreRejectsBadK(t *testing.T) {
	g := graph.Ring(16)
	c, _ := core.NewCluster(g, core.Options{NumNodes: 2})
	defer c.Close()
	if _, err := KCore(c, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestKMeansMatchesSequentialRingOrder also runs with scans that really
// fork: at scale 15 one machine holds 8 source blocks (Workers 4) and two
// hold 4 each (Workers 2), so push rounds merge concurrently scanned
// bins, which must keep source order.
func TestKMeansMatchesSequentialRingOrder(t *testing.T) {
	check := func(t *testing.T, g *graph.Graph, c *core.Cluster, centers, iters int) {
		const seed = 11
		res, err := KMeans(c, centers, iters, seed)
		if err != nil {
			t.Fatal(err)
		}
		if msg := seq.ValidateKMeans(g, res); msg != "" {
			t.Fatal(msg)
		}
		want := seq.KMeans(g, centers, iters, seed, seq.RingOrder(c.Partition()))
		for v := range want.Cluster {
			if res.Cluster[v] != want.Cluster[v] {
				t.Fatalf("vertex %d: cluster %d, want %d", v, res.Cluster[v], want.Cluster[v])
			}
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("vertex %d: dist %d, want %d", v, res.Dist[v], want.Dist[v])
			}
		}
		for i := range want.DistSums {
			if res.DistSums[i] != want.DistSums[i] {
				t.Fatalf("iteration %d: dist sum %d, want %d", i, res.DistSums[i], want.DistSums[i])
			}
		}
	}
	g := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 6))
	forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) { check(t, g, c, 16, 3) })
	if testing.Short() {
		return
	}
	big := graph.Symmetrize(graph.RMAT(15, 4, graph.Graph500Params(), 6))
	for _, opts := range []core.Options{
		{NumNodes: 1, Mode: core.ModeSympleGraph, Workers: 4},
		{NumNodes: 2, Mode: core.ModeGemini, Workers: 2},
		{NumNodes: 2, Mode: core.ModeSympleGraph, Workers: 2},
	} {
		t.Run("scale15/"+cfgName(opts), func(t *testing.T) {
			check(t, big, mustAlgCluster(t, big, opts), 64, 2) // centers in every source block
		})
	}
}

// usesBothDirections runs prog on a traced cluster per configuration and
// requires at least one sparse pass and one dense pass of the switched
// kind per run: the direction statistic (pushFrom) must pick each side.
// prog returns how many of its dense passes are not switched (MIS's veto
// passes); a sparse pass is one SparsePush span per node, a dense pass
// one DenseStep span per node and step.
func usesBothDirections(t *testing.T, g *graph.Graph, prog func(core.Engine) (fixedPulls int64, err error)) {
	t.Helper()
	for _, opts := range []core.Options{
		{NumNodes: 2, Mode: core.ModeGemini},
		{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 32, NumBuffers: 2},
	} {
		tr := obs.NewTracer()
		opts.Tracer = tr
		c := mustAlgCluster(t, g, opts)
		fixed, err := prog(c)
		if err != nil {
			t.Fatal(err)
		}
		var pushSpans, pullSpans int64
		for _, s := range tr.Summaries() {
			switch s.Phase {
			case obs.PhaseSparsePush:
				pushSpans += s.Hist.Count
			case obs.PhaseDenseStep:
				pullSpans += s.Hist.Count
			}
		}
		p := int64(opts.NumNodes)
		push, pull := pushSpans/p, pullSpans/(p*p)-fixed
		if push == 0 || pull == 0 {
			t.Fatalf("%s: %d switched passes pushed and %d pulled, want both", cfgName(opts), push, pull)
		}
	}
}

func TestKMeansUsesBothDirections(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 6))
	usesBothDirections(t, g, func(c core.Engine) (int64, error) {
		_, err := KMeans(c, 16, 3, 11)
		return 0, err
	})
}

// TestMISCoverUsesBothDirections: each round's veto pass always pulls;
// the cover passes must go both ways.
func TestMISCoverUsesBothDirections(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 4))
	usesBothDirections(t, g, func(c core.Engine) (int64, error) {
		res, err := MIS(c, 7)
		if err != nil {
			return 0, err
		}
		return int64(res.Rounds), nil
	})
}

func TestKMeansRejectsBadArgs(t *testing.T) {
	g := graph.Ring(16)
	c, _ := core.NewCluster(g, core.Options{NumNodes: 2})
	defer c.Close()
	if _, err := KMeans(c, 0, 1, 1); err == nil {
		t.Fatal("centers=0 accepted")
	}
	if _, err := KMeans(c, 99, 1, 1); err == nil {
		t.Fatal("centers>|V| accepted")
	}
	if _, err := KMeans(c, 2, 0, 1); err == nil {
		t.Fatal("iters=0 accepted")
	}
}

func TestSampleValidEverywhere(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 8)
	const seed, rounds = 13, 3
	forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
		res, err := Sample(c, seed, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Picks) != rounds {
			t.Fatalf("%d rounds returned", len(res.Picks))
		}
		for r, pick := range res.Picks {
			if msg := seq.ValidateSample(g, pick); msg != "" {
				t.Fatalf("round %d: %s", r, msg)
			}
		}
		if c.Options().Mode == core.ModeSympleGraph && c.Options().NumNodes > 1 && c.Options().DepThreshold == 0 {
			if res.ExactPicks == 0 {
				t.Fatal("no exact picks under full dependency tracking")
			}
		}
	})
}

// TestSampleMatchesOracleExactly: with full dependency tracking the
// distributed prefix walk must reproduce the sequential ring-order oracle
// pick for pick; single-machine runs must reproduce the ascending oracle.
func TestSampleMatchesOracleExactly(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 9)
	const seed, rounds = 17, 2
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("dep/p=%d", p), func(t *testing.T) {
			c, err := core.NewCluster(g, core.Options{
				NumNodes: p, Mode: core.ModeSympleGraph, DepThreshold: 0, NumBuffers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := Sample(c, seed, rounds)
			if err != nil {
				t.Fatal(err)
			}
			order := seq.RingOrder(c.Partition())
			for round := 0; round < rounds; round++ {
				want, _ := seq.SampleNeighbors(g, seed, round, order)
				for v := range want {
					if res.Picks[round][v] != want[v] {
						t.Fatalf("round %d vertex %d: pick %d, want %d", round, v, res.Picks[round][v], want[v])
					}
				}
			}
		})
	}
	for _, mode := range []core.Mode{core.ModeGemini, core.ModeSympleGraph} {
		t.Run(fmt.Sprintf("p=1/%v", mode), func(t *testing.T) {
			c, err := core.NewCluster(g, core.Options{NumNodes: 1, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := Sample(c, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := seq.SampleNeighbors(g, seed, 0, nil)
			for v := range want {
				if res.Picks[0][v] != want[v] {
					t.Fatalf("vertex %d: pick %d, want %d", v, res.Picks[0][v], want[v])
				}
			}
		})
	}
}

// TestSympleGraphBeatsGeminiOnWork asserts the paper's headline effect at
// test scale: with dependency propagation the cluster traverses fewer
// edges and sends fewer update bytes than the Gemini baseline on a skewed
// graph.
func TestSympleGraphBeatsGeminiOnWork(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(10, 16, graph.Graph500Params(), 10))
	root, _ := graph.LargestOutDegreeVertex(g)
	run := func(mode core.Mode) core.RunStats {
		opts := core.Options{NumNodes: 4, Mode: mode, NumBuffers: 2}
		if mode == core.ModeSympleGraph {
			opts.DepThreshold = 32
		}
		c, err := core.NewCluster(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := BFS(c, root); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Totals
	}
	gem := run(core.ModeGemini)
	sym := run(core.ModeSympleGraph)
	if sym.EdgesTraversed >= gem.EdgesTraversed {
		t.Fatalf("edges: symple %d, gemini %d", sym.EdgesTraversed, gem.EdgesTraversed)
	}
	if sym.UpdateBytes >= gem.UpdateBytes {
		t.Fatalf("update bytes: symple %d, gemini %d", sym.UpdateBytes, gem.UpdateBytes)
	}
	if sym.DependencyBytes == 0 || gem.DependencyBytes != 0 {
		t.Fatalf("dependency bytes: symple %d, gemini %d", sym.DependencyBytes, gem.DependencyBytes)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two rings plus isolated vertices.
	var edges []graph.Edge
	for v := 0; v < 10; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % 10)})
	}
	for v := 20; v < 30; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v-20+1)%10 + 20)})
	}
	g := graph.Symmetrize(graph.MustFromEdges(40, edges, graph.BuildOptions{}))
	forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
		labels, err := ConnectedComponents(c)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 10; v++ {
			if labels[v] != 0 {
				t.Fatalf("vertex %d label %d, want 0", v, labels[v])
			}
		}
		for v := 20; v < 30; v++ {
			if labels[v] != 20 {
				t.Fatalf("vertex %d label %d, want 20", v, labels[v])
			}
		}
		for v := 30; v < 40; v++ {
			if labels[v] != uint32(v) {
				t.Fatalf("isolated vertex %d label %d", v, labels[v])
			}
		}
	})
}

func dijkstra(g *graph.Graph, root graph.VertexID) []float32 {
	n := g.NumVertices()
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[root] = 0
	visited := make([]bool, n)
	for {
		best := -1
		for v := 0; v < n; v++ {
			if !visited[v] && dist[v] < InfDist && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		if best < 0 {
			break
		}
		visited[best] = true
		ws := g.OutWeights(graph.VertexID(best))
		for i, u := range g.OutNeighbors(graph.VertexID(best)) {
			if d := dist[best] + ws[i]; d < dist[u] {
				dist[u] = d
			}
		}
	}
	return dist
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := graph.RandomWeights(graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 11)), 12)
	root, _ := graph.LargestOutDegreeVertex(g)
	want := dijkstra(g, root)
	forAllConfigs(t, g, func(t *testing.T, c *core.Cluster) {
		dist, err := SSSP(c, root)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("vertex %d: dist %g, want %g", v, dist[v], want[v])
			}
		}
	})
}

func TestSSSPRejectsUnweighted(t *testing.T) {
	g := graph.Ring(16)
	c, _ := core.NewCluster(g, core.Options{NumNodes: 2})
	defer c.Close()
	if _, err := SSSP(c, 0); err == nil {
		t.Fatal("unweighted graph accepted")
	}
}
