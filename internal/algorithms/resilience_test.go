package algorithms

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
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

func mustAlgCluster(t testing.TB, g *graph.Graph, opts core.Options) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
