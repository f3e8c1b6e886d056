package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
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

// TestMaxRestartsNeedsOwnedTransport: a cluster that cannot Reset — one
// over caller-supplied endpoints, all of them or one — refuses
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
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: hosting(2, eps[0]), MaxRestarts: 1}); err == nil {
		t.Fatal("NewCluster over one of two endpoints accepted MaxRestarts")
	}
	// MaxRestarts 0 builds both, and an owned transport takes any value.
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: eps}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(g, Options{NumNodes: 2, Endpoints: hosting(2, eps[0])}); err != nil {
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

// TestWorkerCheckpointHandle checks the worker-facing surface: the save
// cadence, every declarable kind round-tripping through a commit into a
// recovery re-run, and Run clearing the default store for a fresh
// program.
func TestWorkerCheckpointHandle(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2, CheckpointEvery: 2, MaxRestarts: 1})
	type state struct {
		i   int
		i32 int32
		i64 int64
		f   float64
		u   []uint32
		vs  []graph.VertexID
		s32 []int32
		s64 []int64
		f32 []float32
		f64 []float64
		b   *bitset.Bitmap
	}
	fresh := func() *state {
		return &state{u: make([]uint32, 3), vs: make([]graph.VertexID, 2), s32: make([]int32, 2),
			s64: make([]int64, 2), f32: make([]float32, 2), f64: make([]float64, 2), b: bitset.New(70)}
	}
	fill := func(s *state, id int) *state { // in place: the slices and bitmap are declared
		s.i, s.i32, s.i64, s.f = -1-id, int32(-2-id), -1<<40-int64(id), 0.1*float64(id+1)
		s.u[2], s.vs[1], s.s32[0], s.s64[1] = uint32(7+id), graph.VertexID(9+id), int32(-id-3), int64(id)<<50
		s.f32[1], s.f64[0] = float32(id)+0.5, -float64(id)-0.25
		s.b.Set(65 + id)
		return s
	}
	declare := func(w *Worker, s *state) Checkpoint {
		return w.Checkpoint(&s.i, &s.i32, &s.i64, &s.f, s.u, s.vs, s.s32, s.s64, s.f32, s.f64, s.b)
	}
	err := c.Run(func(w *Worker) error {
		s := fresh()
		ck := declare(w, s)
		if iter, err := ck.Restore(); iter != 0 || err != nil {
			t.Errorf("node %d: fresh program restored (%d, %v)", w.ID(), iter, err)
		}
		fill(s, w.ID())
		for iter := 0; iter < 5; iter++ {
			ck.Save(iter) // due at 2 and 4 only
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.ckpt.Stats(); st.Saved != 4 || st.Commits != 2 || st.CommittedIter != 4 {
		t.Fatalf("Stats = %+v, want 4 saves, 2 commits, committed 4", st)
	}
	// The commit survives into a recovery re-run (runOnce does not clear).
	err = c.runOnce(context.Background(), func(w *Worker) error {
		s := fresh()
		iter, err := declare(w, s).Restore()
		if iter != 4 || err != nil || !reflect.DeepEqual(s, fill(fresh(), w.ID())) {
			t.Errorf("node %d: restore = (%d, %v), state %+v", w.ID(), iter, err, s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh program (Run) must not see its predecessor's state.
	err = c.Run(func(w *Worker) error {
		if iter, err := declare(w, fresh()).Restore(); iter != 0 || err != nil {
			t.Errorf("node %d: fresh Run restored (%d, %v)", w.ID(), iter, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDisabledIsNoop checks the zero-config path, and that an
// undeclarable type is refused even then.
func TestCheckpointDisabledIsNoop(t *testing.T) {
	c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2})
	err := c.Run(func(w *Worker) error {
		x := 7
		ck := w.Checkpoint(&x)
		ck.Save(4) // must not panic
		if iter, err := ck.Restore(); iter != 0 || err != nil || x != 7 {
			t.Errorf("node %d: restore = (%d, %v), x = %d while disabled", w.ID(), iter, err, x)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("node %d: a []bool was declared", w.ID())
			}
		}()
		w.Checkpoint([]bool{true})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// corruptStore hands node 1 a damaged copy of its committed snapshot.
type corruptStore struct {
	CheckpointStore
	damage func([]byte) []byte
}

func (s corruptStore) Restore(node int) (int, []byte, bool) {
	iter, blob, ok := s.CheckpointStore.Restore(node)
	if ok && node == 1 {
		blob = s.damage(slices.Clone(blob))
	}
	return iter, blob, ok
}

// TestCheckpointRejectsCorruptSnapshot: snapshot decode is a checked
// boundary. Each damaged blob fails the run with an error naming the node
// and iteration, never panics, and leaves the declared state untouched.
func TestCheckpointRejectsCorruptSnapshot(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"version":   func(b []byte) []byte { b[0] = 9; return b },
		"short":     func(b []byte) []byte { return b[:5] },
		"items":     func(b []byte) []byte { b[4] = 3; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"trailing":  func(b []byte) []byte { return append(b, 0) },
		"length":    func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 20); return b },
	} {
		t.Run(name, func(t *testing.T) {
			store := corruptStore{CheckpointStore: NewMemCheckpointStore(), damage: damage}
			c := mustCluster(t, graph.Ring(16), Options{NumNodes: 2, CheckpointEvery: 1, Checkpoints: store})
			err := c.Run(func(w *Worker) error {
				arr, x := []uint32{1, 2, 3, 4}, 5
				w.Checkpoint(arr, &x).Save(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The store is the caller's, so the next program resumes it.
			err = c.Run(func(w *Worker) error {
				arr, x := make([]uint32, 4), 0
				_, err := w.Checkpoint(arr, &x).Restore()
				if w.ID() == 1 && (x != 0 || slices.Max(arr) != 0) {
					t.Errorf("a rejected snapshot restored x = %d, arr = %v", x, arr)
				}
				if w.ID() == 0 && (err != nil || x != 5) {
					t.Errorf("node 0's intact snapshot: x = %d, %v", x, err)
				}
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "iteration 1") {
				t.Fatalf("corrupt snapshot: err = %v, want one naming node 1 and iteration 1", err)
			}
		})
	}
}
