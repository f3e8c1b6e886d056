package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestStallErrorOnDroppedUpdate drops all traffic between the two nodes
// and checks that a deadline receive surfaces a StallError naming the
// blocked node, its phase, and the awaited peer — within the configured
// timeout, not after hanging forever.
func TestStallErrorOnDroppedUpdate(t *testing.T) {
	const stall = 100 * time.Millisecond
	plan := &comm.FaultPlan{
		Seed: 1,
		Partitions: []comm.PartitionWindow{
			{A: 0, B: 1, FromStep: 0, ToStep: 1 << 30, Drop: true},
		},
	}
	c := mustCluster(t, graph.Ring(16), Options{
		NumNodes:     2,
		Fault:        plan,
		StallTimeout: stall,
	})
	start := time.Now()
	err := c.Run(func(w *Worker) error {
		if w.ID() == 0 {
			_, err := w.recvTimed(&w.updWait, 1, comm.KindUpdate, 0,
				obs.PhaseUpdateWait, 0, -1, -1)
			return err
		}
		return w.ep.SendBufs(0, comm.KindUpdate, 0, comm.Buffers{{1}}) // silently dropped
	})
	elapsed := time.Since(start)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Node != 0 || se.From != 1 || se.Kind != comm.KindUpdate {
		t.Fatalf("StallError names node %d awaiting (from=%d kind=%v), want node 0 awaiting (from=1 kind=Update)",
			se.Node, se.From, se.Kind)
	}
	if se.Phase != obs.PhaseUpdateWait || se.Timeout != stall {
		t.Fatalf("StallError phase/timeout = %v/%v, want %v/%v", se.Phase, se.Timeout, obs.PhaseUpdateWait, stall)
	}
	if elapsed > 10*stall {
		t.Fatalf("stall detected after %v, want within a few multiples of %v", elapsed, stall)
	}
	if got := c.Stats().Stalls; got != 1 {
		t.Fatalf("Stats().Stalls = %d, want 1", got)
	}
	if plan.Counters().Drops == 0 {
		t.Fatal("fault plan recorded no drops")
	}
}

// TestRunContextCancellation cancels the base context of a run whose
// workers are blocked in Recv, and checks the poisoning/Reset
// lifecycle: the cancelled run returns ctx's error, subsequent runs fail
// fast with *PoisonedError, and Reset restores the cluster to working
// order. MaxRestarts does not retry a cancelled run.
func TestRunContextCancellation(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2, MaxRestarts: 2})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	c.SetBaseContext(ctx)
	err := c.Run(func(w *Worker) error {
		if w.ID() == 0 {
			_, err := w.ep.Recv(1, comm.KindUpdate, 0) // never sent: blocks until poisoned
			return err
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if got := c.Stats().Restarts; got != 0 {
		t.Fatalf("Stats().Restarts = %d after a cancelled run, want 0", got)
	}
	c.SetBaseContext(nil)

	var pe *PoisonedError
	if err := c.Run(func(w *Worker) error { return nil }); !errors.As(err, &pe) {
		t.Fatalf("run after poison: err = %v, want *PoisonedError", err)
	}
	if !errors.Is(pe, context.Canceled) {
		t.Fatalf("PoisonedError cause = %v, want context.Canceled", pe.Cause)
	}

	if err := c.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := c.Run(func(w *Worker) error { return barrier(w) }); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
}

// TestCancelAfterRunDoesNotPoison is the regression test for the cancel
// watcher outliving its run: a context cancelled right after Run
// returns (net/http does exactly that when a handler returns) used to
// race the watcher's shutdown and could poison a cluster its pool had
// already parked, failing the next query leased onto it. Once every
// node has reported, cancellation must be a no-op.
func TestCancelAfterRunDoesNotPoison(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2})
	for i := 0; i < 10000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		c.SetBaseContext(ctx)
		err := c.Run(func(w *Worker) error { return nil })
		cancel()
		runtime.Gosched() // let a watcher that is still alive observe the cancellation
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if cause := c.Poisoned(); cause != nil {
			t.Fatalf("run %d: cluster poisoned after a completed run: %v", i, cause)
		}
	}
	// A watcher that fired late would also have closed the endpoints.
	c.SetBaseContext(nil)
	if err := c.Run(func(w *Worker) error { return barrier(w) }); err != nil {
		t.Fatalf("run after 10000 cancelled contexts: %v", err)
	}
}

// TestRunWithRecoveryRestartsAfterCrash kills node 1 at superstep 1 and
// checks that Run, under MaxRestarts, re-forms the cluster and the
// second attempt — against the same one-shot plan — completes cleanly.
func TestRunWithRecoveryRestartsAfterCrash(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 42, CrashNode: 1, CrashAtSuperstep: 1}
	c := mustCluster(t, graph.Ring(16), Options{
		NumNodes:    2,
		Fault:       plan,
		MaxRestarts: 2,
	})
	var attempts atomic.Int32
	err := c.Run(func(w *Worker) error {
		if w.ID() == 0 {
			attempts.Add(1)
		}
		for step := 1; step <= 3; step++ {
			comm.ObserveSuperstep(w.ep, step)
			if err := barrier(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if restarts := c.Stats().Restarts; restarts != 1 || attempts.Load() != 2 {
		t.Fatalf("restarts = %d, attempts = %d, want 1 restart over 2 attempts", restarts, attempts.Load())
	}
	if got := plan.Counters().Crashes; got != 1 {
		t.Fatalf("Crashes = %d, want 1 (one-shot)", got)
	}
}

// TestRunWithRecoveryGivesUpOnProtocolError checks that a protocol bug —
// not an environmental fault — is never retried.
func TestRunWithRecoveryGivesUpOnProtocolError(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 1, MaxRestarts: 3})
	var attempts atomic.Int32
	perr := &comm.ProtocolError{Node: 0, From: 0, Kind: comm.KindUpdate, WantTag: 1, GotTag: 2}
	err := c.Run(func(w *Worker) error {
		attempts.Add(1)
		return perr
	})
	if restarts := c.Stats().Restarts; restarts != 0 || attempts.Load() != 1 {
		t.Fatalf("restarts = %d, attempts = %d, want no retry of a protocol bug", restarts, attempts.Load())
	}
	if !errors.Is(err, perr) {
		t.Fatalf("err = %v, want the ProtocolError", err)
	}
}

// TestExecuteHonorsMaxRestarts checks the one run entry: with
// MaxRestarts configured Run recovers; without it the fault is fatal.
func TestExecuteHonorsMaxRestarts(t *testing.T) {
	prog := func(w *Worker) error {
		for step := 1; step <= 3; step++ {
			comm.ObserveSuperstep(w.ep, step)
			if err := barrier(w); err != nil {
				return err
			}
		}
		return nil
	}

	plan := &comm.FaultPlan{Seed: 9, CrashNode: 0, CrashAtSuperstep: 2}
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2, Fault: plan, MaxRestarts: 1})
	if err := c.Run(prog); err != nil {
		t.Fatalf("Run with MaxRestarts=1: %v", err)
	}

	plan2 := &comm.FaultPlan{Seed: 9, CrashNode: 0, CrashAtSuperstep: 2}
	c2 := mustCluster(t, graph.Ring(16), Options{NumNodes: 2, Fault: plan2})
	if err := c2.Run(prog); err == nil {
		t.Fatal("Run without restarts survived a crash")
	}
}

// TestMaxRestartsNeedsOwnedTransport: a cluster that cannot Reset — a
// distributed node, or one over caller-supplied endpoints — refuses
// MaxRestarts at construction. Accepting it used to bury a stalled
// run's *StallError under the Reset refusal of the recovery loop.
func TestMaxRestartsNeedsOwnedTransport(t *testing.T) {
	g := graph.Ring(16)
	mc := comm.NewMemCluster(2)
	defer mc.Close()
	eps := mc.Endpoints()
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: eps, MaxRestarts: 1}); err == nil {
		t.Fatal("NewCluster over external endpoints accepted MaxRestarts")
	}
	if _, err := NewDistributedNode(g, Options{NumNodes: 2, MaxRestarts: 1}, eps[0]); err == nil {
		t.Fatal("NewDistributedNode accepted MaxRestarts")
	}
	// MaxRestarts 0 builds both, and an owned transport takes any value.
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: eps}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDistributedNode(g, Options{NumNodes: 2}, eps[0]); err != nil {
		t.Fatal(err)
	}
	mustCluster(t, g, Options{NumNodes: 2, MaxRestarts: 1})
}

// TestCheckpointStoreTwoPhaseCommit exercises both store
// implementations directly: partial saves stay staged, an iteration
// commits only when every member has saved it, stragglers re-saving a
// committed iteration are ignored, and Clear forgets everything.
func TestCheckpointStoreTwoPhaseCommit(t *testing.T) {
	stores := map[string]CheckpointStore{"mem": NewMemCheckpointStore()}
	if fs, err := NewFileCheckpointStore(t.TempDir()); err != nil {
		t.Fatal(err)
	} else {
		stores["file"] = fs
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			s.SetMembers([]int{0, 1, 2})

			s.Save(0, 2, []byte("a0"))
			s.Save(1, 2, []byte("a1"))
			if _, _, ok := s.Restore(0); ok {
				t.Fatal("partial save committed")
			}
			s.Save(2, 2, []byte("a2"))
			iter, blob, ok := s.Restore(1)
			if !ok || iter != 2 || !bytes.Equal(blob, []byte("a1")) {
				t.Fatalf("Restore(1) = (%d, %q, %v), want (2, a1, true)", iter, blob, ok)
			}

			// A straggler re-saving the committed iteration must not regress it.
			s.Save(0, 2, []byte("stale"))
			if _, blob, _ := s.Restore(0); !bytes.Equal(blob, []byte("a0")) {
				t.Fatalf("straggler overwrote committed blob: %q", blob)
			}

			// A newer iteration supersedes, and older staging is pruned.
			s.Save(0, 4, []byte("b0"))
			s.Save(1, 4, []byte("b1"))
			s.Save(2, 4, []byte("b2"))
			if iter, _, _ := s.Restore(2); iter != 4 {
				t.Fatalf("committed iter = %d, want 4", iter)
			}

			s.Clear()
			if _, _, ok := s.Restore(0); ok {
				t.Fatal("Restore after Clear succeeded")
			}
			st := s.Stats()
			if st.Saved == 0 || st.Commits != 2 || st.Restores == 0 || st.CommittedIter != -1 {
				t.Fatalf("Stats = %+v, want saves and 2 commits recorded, committed=-1", st)
			}
		})
	}
}

// TestWorkerCheckpointHandle checks the worker-facing surface: cadence,
// saves committing across all nodes, restore after a simulated failure,
// and Run clearing state for a fresh program.
func TestWorkerCheckpointHandle(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2, CheckpointEvery: 2, MaxRestarts: 1})
	err := c.Run(func(w *Worker) error {
		ck := w.Checkpoint()
		if !ck.Enabled() || ck.Every() != 2 {
			t.Errorf("node %d: Enabled/Every = %v/%d", w.ID(), ck.Enabled(), ck.Every())
		}
		if ck.Due(0) || ck.Due(1) || !ck.Due(2) || ck.Due(3) || !ck.Due(4) {
			t.Errorf("node %d: Due cadence wrong", w.ID())
		}
		if _, _, ok := ck.Restore(); ok {
			t.Errorf("node %d: fresh program restored a snapshot", w.ID())
		}
		ck.Save(2, []byte{byte(w.ID())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The commit survives into a recovery re-run (runOnce does not clear).
	err = c.runOnce(context.Background(), func(w *Worker) error {
		iter, blob, ok := w.Checkpoint().Restore()
		if !ok || iter != 2 || len(blob) != 1 || blob[0] != byte(w.ID()) {
			t.Errorf("node %d: restore = (%d, %v, %v)", w.ID(), iter, blob, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh program (Run) must not see its predecessor's state.
	err = c.Run(func(w *Worker) error {
		if _, _, ok := w.Checkpoint().Restore(); ok {
			t.Errorf("node %d: fresh Run restored stale snapshot", w.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDisabledIsNoop checks the zero-config path.
func TestCheckpointDisabledIsNoop(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2})
	err := c.Run(func(w *Worker) error {
		ck := w.Checkpoint()
		if ck.Enabled() || ck.Due(4) {
			t.Errorf("node %d: checkpointing reported enabled without CheckpointEvery", w.ID())
		}
		ck.Save(4, []byte{1}) // must not panic
		if _, _, ok := ck.Restore(); ok {
			t.Errorf("node %d: restore succeeded while disabled", w.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
