package comm

import (
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// FaultPlan is a deterministic, seed-driven fault schedule layered over
// any Endpoint — the test substrate for every resilience claim the
// engine makes. All randomness is counter-mode (xrand keyed on Seed, the
// node, and a per-endpoint operation index), so a plan replayed against
// the same protocol injects the same fault sequence; no global rand
// state, no wall-clock dependence.
//
// Four fault classes are supported, matching how a ring-synchronized
// engine actually suffers in production:
//
//   - delay spikes: a slow peer (GC pause, noisy neighbor) every machine
//     in the circulant ring stalls behind;
//   - transient send errors: a dropped connection write a retrying
//     caller would survive (*InjectedError);
//   - partition windows: traffic between a node pair silently dropped or
//     failed during a superstep window — the substrate for stall tests;
//   - crash at superstep k: one node dies mid-run (*CrashError from
//     every subsequent operation). A crash fires at most once per plan,
//     so a recovery re-run against the same plan proceeds fault-free —
//     exactly the "machine replaced, cluster re-formed" scenario.
//
// The zero value injects nothing. Plans are safe for concurrent use by
// the endpoints of one cluster.
type FaultPlan struct {
	// Seed drives every fault draw. Two runs with the same seed, plan
	// and protocol observe identical faults.
	Seed uint64

	// DelayProb is the per-send probability of a delay spike of Delay.
	DelayProb float64
	Delay     time.Duration

	// SendErrProb is the per-send probability of a transient
	// *InjectedError (the payload is not delivered).
	SendErrProb float64

	// Partitions lists node-pair windows during which traffic is cut.
	Partitions []PartitionWindow

	// CrashNode dies when its superstep counter reaches CrashAtSuperstep
	// (engine edge-processing passes, announced via ObserveSuperstep).
	// CrashAtSuperstep <= 0 disables crashing.
	CrashNode        NodeID
	CrashAtSuperstep int

	counters   faultCounters
	crashFired atomic.Bool
}

// PartitionWindow cuts traffic between nodes A and B (both directions)
// while either side's superstep counter is in [FromStep, ToStep).
// Drop=true silently discards the messages — the receiver stalls, which
// is what deadline receives must detect; Drop=false fails the send with
// an *InjectedError instead, which the sender sees immediately.
type PartitionWindow struct {
	A, B     NodeID
	FromStep int
	ToStep   int
	Drop     bool
}

// faultCounters tallies injected faults, for observability surfaces and
// test assertions. Read with FaultPlan.Counters.
type faultCounters struct {
	Delays   int64
	SendErrs int64
	Drops    int64
	Crashes  int64
}

// Counters returns a snapshot of the faults injected so far.
func (p *FaultPlan) Counters() faultCounters {
	return faultCounters{
		Delays:   atomic.LoadInt64(&p.counters.Delays),
		SendErrs: atomic.LoadInt64(&p.counters.SendErrs),
		Drops:    atomic.LoadInt64(&p.counters.Drops),
		Crashes:  atomic.LoadInt64(&p.counters.Crashes),
	}
}

// Wrap layers the plan over every endpoint of a cluster. The returned
// endpoints share the plan's counters and one-shot crash state, so
// re-wrapping fresh endpoints after a recovery keeps the history.
func (p *FaultPlan) Wrap(eps []Endpoint) []Endpoint {
	out := make([]Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = p.WrapOne(ep)
	}
	return out
}

// WrapOne layers the plan over a single endpoint (the distributed-mode
// entry point, where each process hosts one machine).
func (p *FaultPlan) WrapOne(ep Endpoint) Endpoint {
	return &faultEndpoint{inner: ep, plan: p}
}

// faultEndpoint interposes the plan on one endpoint. It implements
// Endpoint and stepObserver, forwarding to the wrapped transport after
// the fault draw.
type faultEndpoint struct {
	inner Endpoint
	plan  *FaultPlan

	step    atomic.Int64 // engine superstep, via ObserveSuperstep
	sendOp  atomic.Int64 // per-endpoint send index, the fault-draw counter
	crashed atomic.Bool
}

func (e *faultEndpoint) ID() NodeID    { return e.inner.ID() }
func (e *faultEndpoint) N() int        { return e.inner.N() }
func (e *faultEndpoint) Stats() *Stats { return e.inner.Stats() }
func (e *faultEndpoint) Close() error  { return e.inner.Close() }

// ObserveSuperstep implements stepObserver: it advances the step counter
// and fires the plan's crash when this node's time has come.
func (e *faultEndpoint) ObserveSuperstep(step int) {
	e.step.Store(int64(step))
	p := e.plan
	if p.CrashAtSuperstep > 0 && e.inner.ID() == p.CrashNode && step >= p.CrashAtSuperstep {
		if p.crashFired.CompareAndSwap(false, true) {
			atomic.AddInt64(&p.counters.Crashes, 1)
			e.crashed.Store(true)
		}
	}
	ObserveSuperstep(e.inner, step)
}

func (e *faultEndpoint) crashErr() error {
	return &CrashError{Node: e.inner.ID(), Superstep: int(e.step.Load())}
}

// partitioned reports whether traffic to/from peer is cut right now, and
// whether the cut drops silently.
func (e *faultEndpoint) partitioned(peer NodeID) (cut, drop bool) {
	step := int(e.step.Load())
	id := e.inner.ID()
	for _, w := range e.plan.Partitions {
		pair := (w.A == id && w.B == peer) || (w.B == id && w.A == peer)
		if pair && step >= w.FromStep && step < w.ToStep {
			return true, w.Drop
		}
	}
	return false, false
}

// sendFault runs the per-send fault draws: crash check, delay spike,
// partition cut, transient error. swallow means the frame is silently
// discarded (a dropping partition) — the caller reports success but
// delivers nothing.
func (e *faultEndpoint) sendFault(to NodeID) (swallow bool, err error) {
	if e.crashed.Load() {
		return false, e.crashErr()
	}
	p := e.plan
	op := e.sendOp.Add(1)
	id := uint64(e.inner.ID())
	if p.DelayProb > 0 && xrand.Uniform01(p.Seed, id, uint64(op), 0xde1a7) < p.DelayProb {
		atomic.AddInt64(&p.counters.Delays, 1)
		time.Sleep(p.Delay)
	}
	if cut, drop := e.partitioned(to); cut {
		if drop {
			atomic.AddInt64(&p.counters.Drops, 1)
			return true, nil // swallowed: the receiver sees nothing, ever
		}
		atomic.AddInt64(&p.counters.SendErrs, 1)
		return false, &InjectedError{Node: e.inner.ID(), To: to, Op: op}
	}
	if p.SendErrProb > 0 && xrand.Uniform01(p.Seed, id, uint64(op), 0x5e2d) < p.SendErrProb {
		atomic.AddInt64(&p.counters.SendErrs, 1)
		return false, &InjectedError{Node: e.inner.ID(), To: to, Op: op}
	}
	return false, nil
}

// SendBufs implements Endpoint. Ownership of bufs passes to the
// transport even when the fault plan drops or fails the frame: the
// buffers return to the slab rather than leaking, matching what a real
// transport cut does to bytes already handed to the kernel.
func (e *faultEndpoint) SendBufs(to NodeID, kind Kind, tag int32, bufs Buffers) error {
	swallow, err := e.sendFault(to)
	if err != nil || swallow {
		bufs.release()
		return err
	}
	return e.inner.SendBufs(to, kind, tag, bufs)
}

func (e *faultEndpoint) Recv(from NodeID, kind Kind, tag int32) (Message, error) {
	return e.RecvTimeout(from, kind, tag, 0)
}

// RecvTimeout implements Endpoint: the crash check, then the wrapped
// transport's receive, which owns the deadline semantics.
func (e *faultEndpoint) RecvTimeout(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error) {
	if e.crashed.Load() {
		return Message{}, e.crashErr()
	}
	return e.inner.RecvTimeout(from, kind, tag, timeout)
}
