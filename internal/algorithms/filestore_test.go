package algorithms

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestChaosBFSRecoversViaFileStore is TestChaosBFSRecoversBitIdentical
// with the file-backed checkpoint store standing in for stable storage:
// the crash recovery restores the snapshot from disk and the result
// still matches the fault-free baseline bit for bit.
func TestChaosBFSRecoversViaFileStore(t *testing.T) {
	g := chaosGraph(64)

	baseline, err := BFS(mustAlgCluster(t, g, core.Options{NumNodes: 2}), 0)
	if err != nil {
		t.Fatal(err)
	}

	fs, err := core.NewFileCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := &comm.FaultPlan{Seed: 2026, CrashNode: 1, CrashAtSuperstep: 10}
	c := mustAlgCluster(t, g, core.Options{
		NumNodes:        2,
		Fault:           plan,
		CheckpointEvery: 4,
		Checkpoints:     fs,
		MaxRestarts:     1,
	})
	got, err := BFS(c, 0)
	if err != nil {
		t.Fatalf("BFS under chaos: %v", err)
	}
	if c.Stats().Restarts != 1 {
		t.Fatalf("Stats().Restarts = %d, want 1", c.Stats().Restarts)
	}
	st := fs.Stats()
	if st.Commits == 0 || st.Restores == 0 {
		t.Fatalf("file store saw commits=%d restores=%d, want both > 0", st.Commits, st.Restores)
	}
	if err := fs.Err(); err != nil {
		t.Fatalf("file store I/O error: %v", err)
	}
	if !reflect.DeepEqual(got.Parent, baseline.Parent) || !reflect.DeepEqual(got.Depth, baseline.Depth) {
		t.Fatal("recovered BFS result differs from fault-free baseline")
	}
}

// TestBFSResumesAcrossProcessRestart simulates a daemon dying and
// restarting mid-query, for BFS, K-means (checkpointed at outer
// iterations) and Sample (at rounds): the first incarnation runs to
// completion, committing snapshots to disk; the second builds a fresh
// cluster over a reopened store, which the engine never clears because
// it is the caller's. Its run restores the committed superstep instead of
// starting over, and its result matches the first run exactly.
func TestBFSResumesAcrossProcessRestart(t *testing.T) {
	sym := graph.Symmetrize(chaosGraph(64))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		run  func(core.Engine) (any, error)
	}{
		{"bfs", chaosGraph(64), func(c core.Engine) (any, error) { return BFS(c, 0) }},
		{"kmeans", sym, func(c core.Engine) (any, error) { return KMeans(c, 2, 4, 5) }},
		{"sampling", sym, func(c core.Engine) (any, error) { return Sample(c, 9, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := core.NewFileCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.run(mustAlgCluster(t, tc.g, core.Options{NumNodes: 2, CheckpointEvery: 2, Checkpoints: s1}))
			if err != nil {
				t.Fatal(err)
			}
			if s1.Stats().Commits == 0 {
				t.Fatal("first incarnation committed no checkpoints")
			}

			// "Process restart": new store object on the same directory,
			// new cluster.
			s2, err := core.NewFileCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Stats().CommittedIter < 0 {
				t.Fatal("reopened store lost the committed snapshot")
			}
			got, err := tc.run(mustAlgCluster(t, tc.g, core.Options{NumNodes: 2, CheckpointEvery: 2, Checkpoints: s2}))
			if err != nil {
				t.Fatal(err)
			}
			if s2.Stats().Restores == 0 {
				t.Fatal("resumed run restored nothing from disk")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("resumed result differs from the first incarnation")
			}
		})
	}
}
