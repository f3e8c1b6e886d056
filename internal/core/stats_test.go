package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// denseCountProgram is a representative workload for stats tests: one
// dense in-degree pass with a break (so SympleGraph mode emits
// dependency traffic), a sparse push, and a barrier.
func denseCountProgram(breakEarly bool) func(w *Worker) error {
	return func(w *Worker) error {
		err := ProcessEdgesDense(w, DenseParams[uint32]{
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for range srcs {
					ctx.Edge()
					if breakEarly {
						ctx.Emit(1)
						ctx.EmitDep()
						return
					}
				}
				ctx.Emit(uint32(len(srcs)))
			},
			Slot: func(dst graph.VertexID, msg uint32) {},
		})
		if err != nil {
			return err
		}
		lo, hi := w.MasterRange()
		frontier := make([]graph.VertexID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			frontier = append(frontier, graph.VertexID(v))
		}
		if _, err := ProcessEdgesSparse(w, SparseParams[uint32]{
			Frontier: frontier,
			Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
				for _, d := range dsts {
					ctx.Edge()
					ctx.EmitTo(d, 1)
				}
			},
			Slot: func(dst graph.VertexID, msg uint32) {},
		}); err != nil {
			return err
		}
		return barrier(w)
	}
}

// TestStatsNodeSharesSumToTotals is the snapshot API's core invariant:
// per-node byte/message/work shares sum exactly to the aggregate
// counters, across modes and transports.
func TestStatsNodeSharesSumToTotals(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 11)
	for _, mode := range []Mode{ModeSympleGraph, ModeGemini} {
		for _, transport := range []string{"mem", "tcp"} {
			t.Run(mode.String()+"/"+transport, func(t *testing.T) {
				opts := Options{NumNodes: 4, Mode: mode, DepThreshold: 8, NumBuffers: 2}
				if transport == "tcp" {
					opts.Endpoints = tcpEndpoints(t, 4)
				}
				c := mustCluster(t, g, opts)
				if err := c.Run(denseCountProgram(mode == ModeSympleGraph)); err != nil {
					t.Fatal(err)
				}
				s := c.Stats()
				if len(s.Nodes) != 4 {
					t.Fatalf("%d node entries", len(s.Nodes))
				}
				var sum RunStats
				for i, n := range s.Nodes {
					if n.Node != i {
						t.Fatalf("node entry %d has ID %d", i, n.Node)
					}
					if n.Elapsed != 0 {
						t.Fatalf("node %d carries the run's Elapsed %v", i, n.Elapsed)
					}
					sum.Add(n.RunStats)
				}
				tot := s.Totals
				sum.Elapsed = tot.Elapsed
				if sum != tot {
					t.Fatalf("node shares %+v do not sum to totals %+v", sum, tot)
				}
				if sum.TotalBytes() != tot.UpdateBytes+tot.DependencyBytes+tot.ControlBytes {
					t.Fatalf("per-node TotalBytes mismatch")
				}
				if mode == ModeSympleGraph && tot.DependencyBytes == 0 {
					t.Fatal("no dependency traffic in SympleGraph mode")
				}
				if mode == ModeGemini && tot.DependencyBytes != 0 {
					t.Fatalf("Gemini sent %d dependency bytes", tot.DependencyBytes)
				}
			})
		}
	}
}

// TestStatsTracerPhases checks that an attached tracer yields per-phase
// histograms in the snapshot, covering dense steps, their scan/bin/flush
// sub-phases, waits and barriers — at NumBuffers 1, 2 and 3, whose
// framing (and therefore span counts) differ: a step exchanges one
// dependency segment per non-empty range of the destination partition's
// tracked index space, none for a partition that tracks nothing.
func TestStatsTracerPhases(t *testing.T) {
	g := graph.RMAT(11, 8, graph.Graph500Params(), 11) // 34–132 tracked per partition: up to three segments
	for _, B := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("B=%d", B), func(t *testing.T) {
			tr := obs.NewTracer()
			c := mustCluster(t, g, Options{
				NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 8, NumBuffers: B,
				Tracer: tr,
			})
			// denseCountProgram's one collective (the barrier: its passes
			// end in none), then one of every other shape.
			const collectivesPerNode = 1 + 4
			err := c.Run(func(w *Worker) error {
				if err := denseCountProgram(true)(w); err != nil {
					return err
				}
				n := g.NumVertices()
				if err := w.SyncBitmap(bitset.New(n)); err != nil {
					return err
				}
				if err := Gather(w, make([]uint32, n)); err != nil {
					return err
				}
				if err := AllGather(w, make([]float64, n)); err != nil {
					return err
				}
				return w.AllToAll(comm.KindControl, func(int) []byte { return []byte{1} }, func(int, []byte) error { return nil })
			})
			if err != nil {
				t.Fatal(err)
			}
			s := c.Stats()
			byPhase := map[obs.Phase]int64{}
			nodesSeen := map[int]bool{}
			for _, ps := range s.Phases {
				byPhase[ps.Phase] += ps.Hist.Count
				nodesSeen[ps.Node] = true
			}
			// 4 nodes × 4 steps per dense pass.
			if byPhase[obs.PhaseDenseStep] != 16 {
				t.Fatalf("DenseStep count %d, want 16", byPhase[obs.PhaseDenseStep])
			}
			if byPhase[obs.PhaseSparsePush] != 4 {
				t.Fatalf("SparsePush count %d, want 4", byPhase[obs.PhaseSparsePush])
			}
			// One Barrier span per collective call per node, however many
			// frames the call exchanged.
			if byPhase[obs.PhaseBarrier] != 4*collectivesPerNode {
				t.Fatalf("Barrier count %d, want %d", byPhase[obs.PhaseBarrier], 4*collectivesPerNode)
			}
			if byPhase[obs.PhaseUpdateWait] == 0 {
				t.Fatalf("missing update-wait spans: %v", byPhase)
			}
			if len(nodesSeen) != 4 {
				t.Fatalf("phases cover %d nodes", len(nodesSeen))
			}
			// A partition's block crosses p-1 = 3 ring hops, one segment
			// per non-empty range each.
			segments := DepSegments(c.class.Highs, B)
			if B > 1 && segments <= int64(len(c.class.Highs)) {
				t.Fatalf("%d segments over %d partitions: NumBuffers %d splits nothing", segments, len(c.class.Highs), B)
			}
			wantDep := 3 * segments
			if byPhase[obs.PhaseDepWait] != wantDep {
				t.Fatalf("DepWait count %d, want %d", byPhase[obs.PhaseDepWait], wantDep)
			}
			if byPhase[obs.PhaseDenseBin] != wantDep {
				t.Fatalf("DenseBin count %d, want %d", byPhase[obs.PhaseDenseBin], wantDep)
			}
			if got := s.Totals.DependencyMessages; got != wantDep {
				t.Fatalf("%d dependency frames, want %d", got, wantDep)
			}
			// Dep flushes plus one update flush per remote step.
			if byPhase[obs.PhaseDenseFlush] != wantDep+4*3 {
				t.Fatalf("DenseFlush count %d, want %d", byPhase[obs.PhaseDenseFlush], wantDep+12)
			}
			if byPhase[obs.PhaseDenseScan] < 16 {
				t.Fatalf("DenseScan count %d, want ≥ 16", byPhase[obs.PhaseDenseScan])
			}
			if byPhase[obs.PhaseBufferFlush] != 0 {
				t.Fatalf("BufferFlush count %d: no path emits it", byPhase[obs.PhaseBufferFlush])
			}
		})
	}
}

// TestOptionErrorsNameFlags checks validation errors carry the CLI flag
// vocabulary.
func TestOptionErrorsNameFlags(t *testing.T) {
	g := graph.Ring(8)
	cases := []struct {
		opts Options
		flag string
	}{
		{Options{NumNodes: 0}, "-nodes"},
		{Options{NumNodes: 2, DepThreshold: -1}, "-threshold"},
		{Options{NumNodes: 2, NumBuffers: maxNumBuffers + 1}, "-buffers"},
		{Options{NumNodes: 2, NumBuffers: 1000000000}, "-buffers"},
		{Options{NumNodes: 2, Mode: Mode(99)}, "-mode"},
	}
	for _, tc := range cases {
		_, err := NewCluster(g, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("opts %+v: error %v does not name %s", tc.opts, err, tc.flag)
		}
	}
}

// TestNegativeOptionsAreErrors checks that an explicitly negative count
// or duration is an error naming its flag, never a silent clamp, while
// zero NumBuffers/Workers selects the default.
func TestNegativeOptionsAreErrors(t *testing.T) {
	g := graph.Ring(64)
	cases := []struct {
		opts Options
		flag string
	}{
		{Options{NumNodes: 2, NumBuffers: -3}, "-buffers"},
		{Options{NumNodes: 2, Workers: -1}, "-workers"},
		{Options{NumNodes: 2, StallTimeout: -time.Second}, "-stall-timeout"},
		{Options{NumNodes: 2, CheckpointEvery: -1}, "-checkpoint-every"},
		{Options{NumNodes: 2, MaxRestarts: -1}, "-max-restarts"},
	}
	for _, tc := range cases {
		_, err := NewCluster(g, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("opts %+v: error %v does not name %s", tc.opts, err, tc.flag)
		}
	}
	c := mustCluster(t, g, Options{NumNodes: 2})
	if got := c.Options(); got.NumBuffers != 1 || got.Workers != 1 {
		t.Fatalf("zero NumBuffers/Workers did not select the default 1: %+v", got)
	}
}

// TestClusterRegisterMetrics checks the live-gauge registration against
// a run's actual counters.
func TestClusterRegisterMetrics(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 5)
	c := mustCluster(t, g, Options{NumNodes: 2, Mode: ModeSympleGraph, DepThreshold: 0})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	if err := c.Run(denseCountProgram(false)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["config.mode"] != "symplegraph" {
		t.Fatalf("config.mode = %v", snap["config.mode"])
	}
	sent, ok := snap["comm.node0.update.sent_bytes"].(int64)
	if !ok || sent <= 0 {
		t.Fatalf("comm.node0.update.sent_bytes = %v", snap["comm.node0.update.sent_bytes"])
	}
	if _, ok := snap["comm.link.0-1.sent_bytes"].(int64); !ok {
		t.Fatalf("missing per-link gauge: %v", snap["comm.link.0-1.sent_bytes"])
	}
}
