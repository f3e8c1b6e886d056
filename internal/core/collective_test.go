package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// tcpEndpoints forms an n-node loopback TCP cluster for Options.Endpoints,
// closed when the test ends.
func tcpEndpoints(t *testing.T, n int) []comm.Endpoint {
	t.Helper()
	teps, err := comm.NewTCPClusterLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]comm.Endpoint, n)
	for i, e := range teps {
		eps[i] = e
		t.Cleanup(func() { e.Close() })
	}
	return eps
}

// TestAllGatherBlob checks AllToAll on both transports, as an all-gather
// of one blob per node (control traffic) and with a segment per peer
// (update traffic): every node's apply sees exactly what each peer sent
// it, segments of different lengths included, the caller's own segments
// are left intact, and each exchange's frames are accounted to its kind.
func TestAllGatherBlob(t *testing.T) {
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			opts := Options{NumNodes: 3}
			if transport == "tcp" {
				opts.Endpoints = tcpEndpoints(t, 3)
			}
			c := mustCluster(t, graph.Ring(30), opts)
			// sent is what node from sends node to: one blob for every
			// peer on the control plane, a segment per peer on the update
			// plane.
			sent := func(kind comm.Kind, from, to int) string {
				if kind == comm.KindControl {
					return fmt.Sprintf("node-%d%s", from, "!!!"[:from])
				}
				return fmt.Sprintf("%d→%d%s", from, to, "??"[:to])
			}
			err := c.Run(func(w *Worker) error {
				me := w.ID()
				for _, kind := range []comm.Kind{comm.KindControl, comm.KindUpdate} {
					mine := make([][]byte, 3)
					for peer := range mine {
						mine[peer] = []byte(sent(kind, me, peer))
					}
					got := map[int]string{}
					err := w.AllToAll(kind, func(peer int) []byte { return mine[peer] }, func(peer int, payload []byte) error {
						got[peer] = string(payload)
						return nil
					})
					if err != nil {
						return err
					}
					for peer := range mine {
						if string(mine[peer]) != sent(kind, me, peer) {
							t.Errorf("node %d, %v: own segment for %d became %q", me, kind, peer, mine[peer])
						}
						if peer != me && got[peer] != sent(kind, peer, me) {
							t.Errorf("node %d, %v: peer %d sent %q, want %q", me, kind, peer, got[peer], sent(kind, peer, me))
						}
					}
					if len(got) != 2 {
						t.Errorf("node %d, %v: apply saw %d segments, want 2", me, kind, len(got))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two frames per node per kind, nothing on the dependency plane.
			if s := c.Stats().Totals; s.UpdateMessages != 6 || s.DependencyMessages != 0 || s.UpdateBytes == 0 || s.ControlBytes == 0 {
				t.Fatalf("traffic %+v, want 6 update frames beside the control ones", s)
			}
		})
	}
}

// TestGatherElementTypes pins the element codec for the two types whose
// values used to cross the wire through a hand-made []uint32 copy.
func TestGatherElementTypes(t *testing.T) {
	c := mustCluster(t, graph.Ring(600), Options{NumNodes: 3})
	depthOf := func(v int) int32 { return int32(v) - 300 } // negative values survive
	distOf := func(v int) float32 {
		if v%7 == 0 {
			return float32(math.Inf(1))
		}
		return float32(v) / 3
	}
	err := c.Run(func(w *Worker) error {
		depth, dist := make([]int32, 600), make([]float32, 600)
		lo, hi := w.MasterRange()
		for v := lo; v < hi; v++ {
			depth[v], dist[v] = depthOf(v), distOf(v)
		}
		if err := Gather(w, depth); err != nil {
			return err
		}
		if err := AllGather(w, dist); err != nil {
			return err
		}
		for v := 0; v < 600; v++ {
			if w.ID() == 0 && depth[v] != depthOf(v) {
				t.Errorf("root depth[%d] = %d, want %d", v, depth[v], depthOf(v))
			}
			if dist[v] != distOf(v) {
				t.Errorf("node %d: dist[%d] = %g, want %g", w.ID(), v, dist[v], distOf(v))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// collectives are the shapes a Worker's agreement traffic takes: the star
// all-reduce, the all-to-all segment exchange on the control plane, the
// gather to node 0, and the same exchange on the update plane (the
// D-Galois baseline's label reduce and broadcast), each with the kind of
// traffic it awaits.
var collectives = []struct {
	name string
	kind comm.Kind
	call func(w *Worker) error
}{
	{"AllReduceSum", comm.KindControl, func(w *Worker) error { _, err := w.AllReduceSum(1); return err }},
	{"SyncBitmap", comm.KindControl, func(w *Worker) error { return w.SyncBitmap(bitset.New(w.Graph().NumVertices())) }},
	{"Gather", comm.KindControl, func(w *Worker) error { return Gather(w, make([]uint32, w.Graph().NumVertices())) }},
	{"AllToAll/update", comm.KindUpdate, func(w *Worker) error {
		return w.AllToAll(comm.KindUpdate, func(int) []byte { return nil }, func(int, []byte) error { return nil })
	}},
}

// TestStallErrorInCollective closes the hole DESIGN used to document: a
// collective whose peer never shows up fails with a *StallError in
// PhaseBarrier naming the awaited peer, instead of hanging past
// StallTimeout. On the memory transport a dropping partition cuts nodes
// 0 and 1; on TCP node 1 returns without joining. Node 0 waits on node 1
// first in every shape; which node's deadline fires first (and
// poisons the rest into *ClosedError) is the scheduler's, so the
// per-node errors are collected and every stall among them checked.
func TestStallErrorInCollective(t *testing.T) {
	const stall = 100 * time.Millisecond
	for _, transport := range []string{"mem", "tcp"} {
		for _, n := range []int{2, 4} {
			for _, coll := range collectives {
				t.Run(fmt.Sprintf("%s/p=%d/%s", transport, n, coll.name), func(t *testing.T) {
					opts := Options{NumNodes: n, StallTimeout: stall}
					if transport == "tcp" {
						opts.Endpoints = tcpEndpoints(t, n)
					} else {
						opts.Fault = &comm.FaultPlan{Seed: 1, Partitions: []comm.PartitionWindow{
							{A: 0, B: 1, FromStep: 0, ToStep: 1 << 30, Drop: true}}}
					}
					c := mustCluster(t, graph.Ring(512), opts)
					nodeErrs := make([]error, n)
					done := make(chan error, 1)
					start := time.Now()
					go func() {
						done <- c.Run(func(w *Worker) error {
							if transport == "tcp" && w.ID() == 1 {
								return nil // never joins
							}
							nodeErrs[w.ID()] = coll.call(w)
							return nodeErrs[w.ID()]
						})
					}()
					var err error
					select {
					case err = <-done:
					case <-time.After(3 * time.Second):
						t.Fatalf("still blocked in %s after 3s: the collective is not deadlined", coll.name)
					}
					if elapsed := time.Since(start); elapsed > 10*stall {
						t.Fatalf("failed after %v, want within a few multiples of %v", elapsed, stall)
					}
					if !IsRecoverable(err) {
						t.Fatalf("run error %v is not recoverable", err)
					}
					stalls := 0
					for node, nerr := range nodeErrs {
						var se *StallError
						if !errors.As(nerr, &se) {
							continue
						}
						stalls++
						if se.Node != node || se.Phase != obs.PhaseBarrier || se.Kind != coll.kind || se.Timeout != stall {
							t.Errorf("node %d: %v, want its own stall in %v on %v traffic after %v", node, se, obs.PhaseBarrier, coll.kind, stall)
						}
						if node == 0 && se.From != 1 {
							t.Errorf("node 0 stalled awaiting %d, want the cut peer 1", se.From)
						}
						if se.From != 0 && se.From != 1 {
							t.Errorf("node %d stalled awaiting %d, want an end of the cut", node, se.From)
						}
					}
					if stalls == 0 {
						t.Fatalf("no node reported a *StallError: %v", nodeErrs)
					}
					if got := c.Stats().Stalls; got < int64(stalls) {
						t.Fatalf("Stats().Stalls = %d with %d stalled nodes", got, stalls)
					}
				})
			}
		}
	}
}

// TestRunWithRecoveryRestartsAfterCollectiveStall checks that a stall
// inside a collective is recovered like a stalled data-plane receive:
// the partition holds during the first attempt's superstep only.
func TestRunWithRecoveryRestartsAfterCollectiveStall(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 3, Partitions: []comm.PartitionWindow{
		{A: 0, B: 1, FromStep: 1, ToStep: 2, Drop: true}}}
	c := mustCluster(t, graph.Ring(16), Options{
		NumNodes: 2, Fault: plan, MaxRestarts: 2, StallTimeout: 50 * time.Millisecond,
	})
	attempts := make([]int, 2)
	err := c.Run(func(w *Worker) error {
		attempts[w.ID()]++
		comm.ObserveSuperstep(w.ep, attempts[w.ID()])
		_, err := w.AllReduceSum(1)
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if restarts := c.Stats().Restarts; restarts != 1 || c.Stats().Stalls == 0 {
		t.Fatalf("restarts = %d, stalls = %d, want one restart after a counted stall", restarts, c.Stats().Stalls)
	}
}

// resizeEndpoint delivers node `from`'s control frames `delta` bytes
// longer (zero-padded) or shorter than they were sent.
type resizeEndpoint struct {
	comm.Endpoint
	from  comm.NodeID
	delta int
}

func (e resizeEndpoint) RecvTimeout(from comm.NodeID, kind comm.Kind, tag int32, timeout time.Duration) (comm.Message, error) {
	m, err := e.Endpoint.RecvTimeout(from, kind, tag, timeout)
	if err == nil && from == e.from && kind == comm.KindControl {
		if e.delta < 0 {
			m.Payload = m.Payload[:len(m.Payload)+e.delta]
		} else {
			m.Payload = append(m.Payload, make([]byte, e.delta)...)
		}
	}
	return m, err
}

// TestCollectivePayloadChecked feeds each collective a frame of the
// wrong size: a short segment used to leave stale values behind, a long
// one indexed into the next partition, and a short reduce frame
// panicked. All are protocol violations naming the stream.
func TestCollectivePayloadChecked(t *testing.T) {
	paths := []struct {
		name string
		call func(w *Worker) error
	}{
		{"Gather/uint32", func(w *Worker) error { return Gather(w, make([]uint32, w.Graph().NumVertices())) }},
		{"AllGather/float64", func(w *Worker) error { return AllGather(w, make([]float64, w.Graph().NumVertices())) }},
		{"AllReduceSum", func(w *Worker) error { _, err := w.AllReduceSum(7); return err }},
	}
	for _, path := range paths {
		for _, delta := range []int{-1, +1, +8} {
			t.Run(fmt.Sprintf("%s/%+d", path.name, delta), func(t *testing.T) {
				eps := comm.NewMemCluster(3).Endpoints()
				eps[0] = resizeEndpoint{Endpoint: eps[0], from: 1, delta: delta}
				c := mustCluster(t, graph.Ring(600), Options{NumNodes: 3, Endpoints: eps})
				err := c.Run(path.call)
				var pe *comm.ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *comm.ProtocolError", err)
				}
				if pe.Node != 0 || pe.From != 1 || pe.Kind != comm.KindControl || pe.GotTag != pe.WantTag || pe.Reason == "" {
					t.Fatalf("protocol error %+v, want node 0, peer 1, the collective's tag and a reason", pe)
				}
				if IsRecoverable(err) {
					t.Fatal("a malformed collective frame is a bug, not a fault to retry")
				}
			})
		}
	}
}
