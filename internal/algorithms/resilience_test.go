package algorithms

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/seq"
)

// chaosGraph is a long directed path: BFS and SSSP need one superstep
// per hop, so a mid-run crash lands well after several checkpoints have
// committed and well before the run would finish on its own.
func chaosGraph(n int) *graph.Graph { return graph.Path(n) }

// TestChaosBFSRecoversBitIdentical is the headline resilience claim: a
// seeded fault plan crashes node 1 mid-run, the engine re-forms the
// cluster and resumes from the last committed superstep checkpoint, and
// the recovered result is bit-identical to a fault-free run.
func TestChaosBFSRecoversBitIdentical(t *testing.T) {
	g := chaosGraph(64)

	baseline, err := BFS(mustAlgCluster(t, g, core.Options{NumNodes: 2}), 0)
	if err != nil {
		t.Fatal(err)
	}

	plan := &comm.FaultPlan{Seed: 2026, CrashNode: 1, CrashAtSuperstep: 10}
	c := mustAlgCluster(t, g, core.Options{
		NumNodes:        2,
		Fault:           plan,
		CheckpointEvery: 4,
		MaxRestarts:     1,
	})
	got, err := BFS(c, 0)
	if err != nil {
		t.Fatalf("BFS under chaos: %v", err)
	}

	if plan.Counters().Crashes != 1 {
		t.Fatalf("Crashes = %d, want exactly 1", plan.Counters().Crashes)
	}
	if c.Stats().Restarts != 1 {
		t.Fatalf("Stats().Restarts = %d, want 1", c.Stats().Restarts)
	}
	if !reflect.DeepEqual(got.Parent, baseline.Parent) || !reflect.DeepEqual(got.Depth, baseline.Depth) {
		t.Fatal("recovered BFS result differs from fault-free baseline")
	}
	// The recovered run must have resumed from a committed snapshot, not
	// recomputed from scratch.
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if n, _ := snap["resilience.checkpoint.restores"].(int64); n == 0 {
		t.Fatalf("no checkpoint restores recorded: %v", snap["resilience.checkpoint.restores"])
	}
	if n, _ := snap["resilience.checkpoint.commits"].(int64); n == 0 {
		t.Fatal("no checkpoint commits recorded")
	}
}

// TestChaosSSSPRecoversBitIdentical is the same claim for SSSP: float
// distances must match bit for bit, not approximately. The bucket bound
// is part of the snapshot, so the recovered run also spends exactly the
// fault-free run's passes from the restored superstep on: a restore that
// reset the bound to Δ would reach the same bits a pass later.
func TestChaosSSSPRecoversBitIdentical(t *testing.T) {
	g := graph.RandomWeights(chaosGraph(64), 5)

	ff := mustAlgCluster(t, g, core.Options{NumNodes: 2})
	baseline, err := SSSP(ff, 0)
	if err != nil {
		t.Fatal(err)
	}

	plan := &comm.FaultPlan{Seed: 11, CrashNode: 0, CrashAtSuperstep: 9}
	store := &restoreLog{CheckpointStore: core.NewMemCheckpointStore()}
	c := mustAlgCluster(t, g, core.Options{
		NumNodes:        2,
		Fault:           plan,
		CheckpointEvery: 3,
		Checkpoints:     store,
		MaxRestarts:     1,
	})
	got, err := SSSP(c, 0)
	if err != nil {
		t.Fatalf("SSSP under chaos: %v", err)
	}

	if plan.Counters().Crashes != 1 || c.Stats().Restarts != 1 {
		t.Fatalf("crashes = %d, restarts = %d, want 1 and 1",
			plan.Counters().Crashes, c.Stats().Restarts)
	}
	for v := range got {
		if math.Float32bits(got[v]) != math.Float32bits(baseline[v]) {
			t.Fatalf("dist[%d] = %x, baseline %x: not bit-identical",
				v, math.Float32bits(got[v]), math.Float32bits(baseline[v]))
		}
	}
	if len(store.iters) != 2 || store.iters[0] != store.iters[1] || store.iters[0] == 0 {
		t.Fatalf("restored iterations %v, want one non-zero iteration per node", store.iters)
	}
	// Stats cover the last attempt: the recovered run alone.
	passes, ffPasses := c.Stats().Totals.Supersteps/2, ff.Stats().Totals.Supersteps/2
	if want := ffPasses - int64(store.iters[0]); passes != want {
		t.Fatalf("recovered run took %d passes from iteration %d, the fault-free run %d (of %d)",
			passes, store.iters[0], want, ffPasses)
	}
}

// restoreLog records the iteration every successful Restore hands back.
type restoreLog struct {
	core.CheckpointStore
	mu    sync.Mutex
	iters []int
}

func (s *restoreLog) Restore(node int) (int, []byte, bool) {
	iter, blob, ok := s.CheckpointStore.Restore(node)
	if ok {
		s.mu.Lock()
		s.iters = append(s.iters, iter)
		s.mu.Unlock()
	}
	return iter, blob, ok
}

// TestChaosBFSWithoutCheckpointsStartsOver checks the restart-only
// degenerate mode: no checkpoints, the recovered run recomputes from the
// root and still matches.
func TestChaosBFSWithoutCheckpointsStartsOver(t *testing.T) {
	g := chaosGraph(48)
	baseline, err := BFS(mustAlgCluster(t, g, core.Options{NumNodes: 2}), 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &comm.FaultPlan{Seed: 3, CrashNode: 1, CrashAtSuperstep: 5}
	c := mustAlgCluster(t, g, core.Options{NumNodes: 2, Fault: plan, MaxRestarts: 1})
	got, err := BFS(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Depth, baseline.Depth) {
		t.Fatal("restarted BFS differs from baseline")
	}
}

// TestChaosSoak sweeps crash points, cluster sizes and seeds — the
// `make chaos` target. Delay spikes are layered on top of the crash so
// recovery is exercised under timing jitter too.
func TestChaosSoak(t *testing.T) {
	g := chaosGraph(48)
	baseline, err := BFS(mustAlgCluster(t, g, core.Options{NumNodes: 2}), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 3} {
		for _, crashAt := range []int{1, 6, 13} {
			for seed := uint64(1); seed <= 3; seed++ {
				plan := &comm.FaultPlan{
					Seed:             seed,
					CrashNode:        comm.NodeID(int(seed) % nodes),
					CrashAtSuperstep: crashAt,
					DelayProb:        0.02,
					Delay:            500 * time.Microsecond,
				}
				c := mustAlgCluster(t, g, core.Options{
					NumNodes:        nodes,
					Fault:           plan,
					CheckpointEvery: 5,
					MaxRestarts:     2,
					StallTimeout:    5 * time.Second,
				})
				got, err := BFS(c, 0)
				if err != nil {
					t.Fatalf("nodes=%d crashAt=%d seed=%d: %v", nodes, crashAt, seed, err)
				}
				if !reflect.DeepEqual(got.Parent, baseline.Parent) || !reflect.DeepEqual(got.Depth, baseline.Depth) {
					t.Fatalf("nodes=%d crashAt=%d seed=%d: result differs from baseline", nodes, crashAt, seed)
				}
				if plan.Counters().Crashes != 1 {
					t.Fatalf("nodes=%d crashAt=%d seed=%d: crashes = %d", nodes, crashAt, seed, plan.Counters().Crashes)
				}
			}
		}
	}
}

// chaosCase is one algorithm of the chaos table: its graph, checkpoint
// cadence and run, and a check of a result against the sequential oracle
// ("" when it matches).
type chaosCase struct {
	name   string
	g      *graph.Graph
	every  int
	run    func(core.Engine) (any, error)
	oracle func(c *core.Cluster, got any) string
}

// chaosCases covers all eight algorithms on graphs where each oracle is
// exact: a directed path gives BFS a unique tree, SSSP a unique path and
// PageRank one term per sum.
func chaosCases() []chaosCase {
	const n = 191 // machines own 64-vertex chunks: all three at p = 3
	path, sym := chaosGraph(n), graph.Symmetrize(chaosGraph(n))
	weighted := graph.RandomWeights(path, 5)
	// MIS settles a random path in two or three rounds; a path through
	// the vertices in falling color order settles from one end, a vertex
	// per round.
	colors := seq.MISColors(n, 8)
	order := make([]graph.VertexID, n)
	for v := range order {
		order[v] = graph.VertexID(v)
	}
	slices.SortFunc(order, func(a, b graph.VertexID) int { return cmp.Compare(colors[b], colors[a]) })
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{Src: order[i-1], Dst: order[i]})
	}
	misGraph := graph.Symmetrize(graph.MustFromEdges(n, edges, graph.BuildOptions{}))
	mismatch := func(what string, got, want any) string {
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("%s = %v, oracle %v", what, got, want)
		}
		return ""
	}
	return []chaosCase{
		{"bfs", path, 5, func(c core.Engine) (any, error) { return BFS(c, 0) }, func(_ *core.Cluster, got any) string {
			r, want := got.(*BFSResult), seq.TopDownBFS(path, 0)
			return mismatch("parent", r.Parent, want.Parent) + mismatch("depth", r.Depth, want.Depth)
		}},
		{"sssp", weighted, 4, func(c core.Engine) (any, error) { return SSSP(c, 0) }, func(_ *core.Cluster, got any) string {
			return mismatch("dist", got, dijkstra(weighted, 0))
		}},
		{"cc", sym, 3, func(c core.Engine) (any, error) { return ConnectedComponents(c) }, func(_ *core.Cluster, got any) string {
			return mismatch("labels", got, make([]uint32, n)) // one component
		}},
		{"pagerank", path, 4, func(c core.Engine) (any, error) { return PageRank(c, 24, 0.85) }, func(_ *core.Cluster, got any) string {
			return mismatch("rank", got, seqPageRank(path, 24, 0.85))
		}},
		{"kcore", sym, 3, func(c core.Engine) (any, error) { return KCore(c, 2) }, func(_ *core.Cluster, got any) string {
			want, _ := seq.KCoreIterative(sym, 2)
			return mismatch("in core", got.(*KCoreResult).InCore, want)
		}},
		{"mis", misGraph, 4, func(c core.Engine) (any, error) { return MIS(c, 8) }, func(_ *core.Cluster, got any) string {
			return mismatch("in MIS", got.(*MISResult).InMIS, seq.GreedyMIS(misGraph, colors))
		}},
		{"kmeans", sym, 1, func(c core.Engine) (any, error) { return KMeans(c, 6, 5, 5) }, func(c *core.Cluster, got any) string {
			r, want := got.(*seq.KMeansResult), seq.KMeans(sym, 6, 5, 5, seq.RingOrder(c.Partition()))
			return mismatch("cluster", r.Cluster, want.Cluster) + mismatch("dist", r.Dist, want.Dist) +
				mismatch("dist sums", r.DistSums, want.DistSums) + mismatch("centers", r.Centers, want.Centers)
		}},
		// The exact prefix walk is SympleGraph's with every vertex tracked;
		// Gemini's hierarchical picks have no sequential twin, only a
		// validity check.
		{"sampling", sym, 1, func(c core.Engine) (any, error) { return Sample(c, 9, 9) }, func(c *core.Cluster, got any) string {
			for round, pick := range got.(*SampleResult).Picks {
				if c.Options().Mode == core.ModeGemini {
					if msg := seq.ValidateSample(sym, pick); msg != "" {
						return fmt.Sprintf("round %d: %s", round, msg)
					}
					continue
				}
				want, _ := seq.SampleNeighbors(sym, 9, round, seq.RingOrder(c.Partition()))
				if msg := mismatch(fmt.Sprintf("round %d picks", round), pick, want); msg != "" {
					return msg
				}
			}
			return ""
		}},
	}
}

// TestChaosEveryAlgorithmRecoversBitIdentical crashes one node halfway and
// five sixths of the way through each algorithm's fault-free run, in both
// modes at p = 2 and 3. Every recovered run must have restored a committed
// snapshot, not started over, and its result must equal the fault-free
// run's and the sequential oracle's bit for bit.
func TestChaosEveryAlgorithmRecoversBitIdentical(t *testing.T) {
	for _, tc := range chaosCases() {
		for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
			for _, p := range []int{2, 3} {
				name := fmt.Sprintf("%s/%v/p=%d", tc.name, mode, p)
				ff := mustAlgCluster(t, tc.g, core.Options{NumNodes: p, Mode: mode})
				want, err := tc.run(ff)
				if err != nil {
					t.Fatalf("%s fault-free: %v", name, err)
				}
				if msg := tc.oracle(ff, want); msg != "" {
					t.Fatalf("%s fault-free: %s", name, msg)
				}
				for i := 0; i < p; i++ {
					if lo, hi := ff.Partition().Range(i); hi <= lo {
						t.Fatalf("%s: node %d owns no vertex", name, i)
					}
				}
				steps := int(ff.Stats().Totals.Supersteps) / p
				for k, crashAt := range []int{steps / 2, 5 * steps / 6} {
					plan := &comm.FaultPlan{Seed: uint64(k), CrashNode: comm.NodeID(k % p), CrashAtSuperstep: crashAt}
					c := mustAlgCluster(t, tc.g, core.Options{NumNodes: p, Mode: mode, Fault: plan,
						CheckpointEvery: tc.every, MaxRestarts: 1, StallTimeout: 10 * time.Second})
					got, err := tc.run(c)
					if err != nil {
						t.Fatalf("%s crash at %d: %v", name, crashAt, err)
					}
					reg := obs.NewRegistry()
					c.RegisterMetrics(reg)
					restores, _ := reg.Snapshot()["resilience.checkpoint.restores"].(int64)
					if plan.Counters().Crashes != 1 || c.Stats().Restarts != 1 || restores == 0 {
						t.Fatalf("%s crash at %d of %d: crashes %d, restarts %d, restores %d, want 1, 1 and > 0",
							name, crashAt, steps, plan.Counters().Crashes, c.Stats().Restarts, restores)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s crash at %d: recovered result differs from the fault-free run", name, crashAt)
					}
					if msg := tc.oracle(c, got); msg != "" {
						t.Fatalf("%s crash at %d: %s", name, crashAt, msg)
					}
				}
			}
		}
	}
}

func mustAlgCluster(t testing.TB, g *graph.Graph, opts core.Options) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
