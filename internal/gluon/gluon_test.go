package gluon

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/seq"
)

func mustEngine(t testing.TB, g *graph.Graph, p int) *Engine {
	t.Helper()
	e, err := New(g, core.Options{NumNodes: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestGluonBFSMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": graph.RMAT(9, 8, graph.Graph500Params(), 1),
		"grid": graph.Grid(12, 12),
	}
	for name, g := range graphs {
		root, _ := graph.LargestOutDegreeVertex(g)
		want := seq.TopDownBFS(g, root)
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				e := mustEngine(t, g, p)
				depth, err := BFS(e, root)
				if err != nil {
					t.Fatal(err)
				}
				for v := range depth {
					wantD := uint32(want.Depth[v])
					if want.Depth[v] < 0 {
						wantD = Inf
					}
					if depth[v] != wantD {
						t.Fatalf("vertex %d: depth %d, want %d", v, depth[v], wantD)
					}
				}
			})
		}
	}
}

func TestGluonMISMatchesGreedy(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 2))
	const seed = 3
	want := seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), seed))
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			e := mustEngine(t, g, p)
			got, err := MIS(e, seed)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
				}
			}
		})
	}
}

func TestGluonKCoreMatchesSequential(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 4))
	for _, k := range []int{2, 5} {
		want, _ := seq.KCoreIterative(g, k)
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("k=%d/p=%d", k, p), func(t *testing.T) {
				e := mustEngine(t, g, p)
				got, err := KCore(e, k)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
					}
				}
			})
		}
	}
	e := mustEngine(t, g, 2)
	if _, err := KCore(e, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestGluonKMeansValid(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 5))
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			e := mustEngine(t, g, p)
			res, err := KMeans(e, 8, 3, 6)
			if err != nil {
				t.Fatal(err)
			}
			if msg := seq.ValidateKMeans(g, res); msg != "" {
				t.Fatal(msg)
			}
			if len(res.DistSums) != 3 {
				t.Fatalf("%d dist sums", len(res.DistSums))
			}
		})
	}
}

func TestGluonKMeansRejectsBadArgs(t *testing.T) {
	g := graph.Ring(16)
	e := mustEngine(t, g, 2)
	if _, err := KMeans(e, 0, 1, 1); err == nil {
		t.Fatal("centers=0 accepted")
	}
	if _, err := KMeans(e, 99, 1, 1); err == nil {
		t.Fatal("too many centers accepted")
	}
}

func TestGluonStatsRecorded(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 7)
	root, _ := graph.LargestOutDegreeVertex(g)
	e := mustEngine(t, g, 4)
	if _, err := BFS(e, root); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().Totals
	if s.EdgesTraversed == 0 || s.UpdateBytes == 0 || s.ControlBytes == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
}

// Gluon synchronization must cost more bytes than the Gemini-style engine
// on the same workload — the mechanism behind Tables 4/7 at small scale.
func TestGluonHeavierThanGeminiEngine(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(9, 16, graph.Graph500Params(), 8))
	const seed = 9
	e := mustEngine(t, g, 4)
	if _, err := MIS(e, seed); err != nil {
		t.Fatal(err)
	}
	gluonBytes := e.Stats().Totals.UpdateBytes

	// Same algorithm on the core engine in Gemini mode.
	gemBytes := geminiMISUpdateBytes(t, g, seed)
	if gluonBytes <= gemBytes {
		t.Fatalf("gluon sync %d bytes <= gemini update %d bytes", gluonBytes, gemBytes)
	}
}

// geminiMISUpdateBytes runs MIS on the core engine in Gemini mode and
// returns its update traffic.
func geminiMISUpdateBytes(t *testing.T, g *graph.Graph, seed uint64) int64 {
	t.Helper()
	c, err := core.NewCluster(g, core.Options{NumNodes: 4, Mode: core.ModeGemini})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := algorithms.MIS(c, seed); err != nil {
		t.Fatal(err)
	}
	return c.Stats().Totals.UpdateBytes
}

// A D-Galois run behind a dropping partition fails the way the engine's
// runs do: a deadlined receive reports the stall well within a few
// timeouts instead of hanging, the failure poisons the cluster, and once
// the partition heals Reset re-forms it for a correct run.
func TestGluonStallPoisonsAndResets(t *testing.T) {
	const stall = 100 * time.Millisecond
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 2))
	plan := &comm.FaultPlan{Seed: 1, Partitions: []comm.PartitionWindow{
		{A: 0, B: 1, FromStep: 0, ToStep: 1 << 30, Drop: true}}}
	e, err := New(g, core.Options{NumNodes: 4, StallTimeout: stall, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	start := time.Now()
	_, err = MIS(e, 3)
	if elapsed := time.Since(start); elapsed > 10*stall {
		t.Fatalf("MIS failed after %v, want within 10× the %v stall timeout", elapsed, stall)
	}
	if err == nil || !core.IsRecoverable(err) {
		t.Fatalf("MIS across a partition returned %v, want a recoverable failure", err)
	}
	if e.Stats().Stalls == 0 {
		t.Fatalf("no node reported a *core.StallError; the run failed with %v", err)
	}
	if se := (*core.StallError)(nil); errors.As(err, &se) && (se.Phase != obs.PhaseBarrier || se.Kind != comm.KindUpdate) {
		t.Fatalf("%v, want a stall in %v on the update plane", se, obs.PhaseBarrier)
	}
	var pe *core.PoisonedError
	if _, err := MIS(e, 3); !errors.As(err, &pe) {
		t.Fatalf("run after the failure returned %v, want *core.PoisonedError", err)
	}

	plan.Partitions = nil // the partition heals
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	root, _ := graph.LargestOutDegreeVertex(g)
	depth, err := BFS(e, root)
	if err != nil {
		t.Fatalf("BFS after Reset: %v", err)
	}
	want := seq.TopDownBFS(g, root)
	for v := range depth {
		wantD := uint32(want.Depth[v])
		if want.Depth[v] < 0 {
			wantD = Inf
		}
		if depth[v] != wantD {
			t.Fatalf("vertex %d: depth %d, want %d", v, depth[v], wantD)
		}
	}
}

func TestGluonRunPropagatesErrors(t *testing.T) {
	g := graph.Ring(64)
	e := mustEngine(t, g, 2)
	if err := e.Run(func(w *core.Worker) error {
		if w.ID() == 1 {
			panic("boom")
		}
		_, err := w.AllReduceSum(1)
		return err
	}); err == nil {
		t.Fatal("panic not surfaced")
	}
}
