package comm

import (
	"fmt"
	"time"
)

// The comm error taxonomy separates the three failure classes a caller
// reacts to differently:
//
//   - *ProtocolError — a tag mismatch at the receiver, or a collective
//     frame whose payload is not the shape its tag promises. The message
//     stream between two nodes diverged from the SPMD protocol; this is
//     a bug in the program or the engine, never recoverable by retrying.
//   - *ClosedError — the endpoint shut down while a receive was pending:
//     local Close, cluster teardown, or (on TCP) a vanished peer. The
//     awaited message will never arrive; the run is lost but the process
//     is healthy and the cluster can be re-formed.
//   - *TimeoutError — a deadline receive expired. The peer may be slow,
//     partitioned or dead; the engine turns this into a core.StallError
//     naming the blocked phase.
//
// Fault injection adds *CrashError (a simulated machine death) and
// *InjectedError (a simulated transient fault); both are recoverable by
// re-forming the cluster and re-running.

// ProtocolError reports a receive whose next queued message carried the
// wrong tag — a protocol bug (desynchronized SPMD streams), as opposed to
// peer loss. Node is the receiving endpoint, From the sender. Reason is
// set instead when the tag matched but the payload did not decode (a
// reduce frame that is not 8 bytes, a gather segment that is not the
// sender's range, an update record for a vertex the receiver does not
// own).
type ProtocolError struct {
	Node    NodeID
	From    NodeID
	Kind    Kind
	WantTag int32
	GotTag  int32
	Reason  string
}

func (e *ProtocolError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("comm: protocol violation at node %d: frame from node %d kind %v tag %d: %s",
			e.Node, e.From, e.Kind, e.GotTag, e.Reason)
	}
	return fmt.Sprintf("comm: protocol violation at node %d: received tag %d from node %d kind %v, expected %d",
		e.Node, e.GotTag, e.From, e.Kind, e.WantTag)
}

// ClosedError reports an operation that can never complete because the
// transport closed: local teardown, run poisoning, or a lost TCP peer.
// Op is "send" when a write to the dead peer failed; empty for the
// common case, a receive whose messages will never arrive. Addr is set
// instead of the node triple when the loss happened on a control-plane
// connection (CtrlConn), which has a peer address but no ring identity.
type ClosedError struct {
	Node  NodeID
	From  NodeID
	Kind  Kind
	Op    string
	Addr  string
	Cause error
}

func (e *ClosedError) Error() string {
	if e.Addr != "" {
		if e.Op == "send" {
			return fmt.Sprintf("comm: control connection to %s closed during send: %v", e.Addr, e.Cause)
		}
		return fmt.Sprintf("comm: control connection to %s closed: %v", e.Addr, e.Cause)
	}
	if e.Op == "send" {
		return fmt.Sprintf("comm: endpoint %d lost peer %d sending kind %v: %v", e.Node, e.From, e.Kind, e.Cause)
	}
	return fmt.Sprintf("comm: endpoint %d closed while receiving from %d kind %v", e.Node, e.From, e.Kind)
}

// Unwrap exposes the underlying I/O error, when one was recorded.
func (e *ClosedError) Unwrap() error { return e.Cause }

// TimeoutError reports a deadline receive that expired before the awaited
// message arrived. It names the exact stream so stall reports can say who
// was being waited on.
type TimeoutError struct {
	Node    NodeID
	From    NodeID
	Kind    Kind
	Tag     int32
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("comm: node %d timed out after %v receiving from %d kind %v tag %d",
		e.Node, e.Timeout, e.From, e.Kind, e.Tag)
}

// CrashError is returned by every operation on an endpoint whose node a
// FaultPlan has crashed: the in-process simulation of a machine death.
type CrashError struct {
	Node      NodeID
	Superstep int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("comm: node %d crashed by fault plan at superstep %d", e.Node, e.Superstep)
}

// InjectedError is a transient, seed-driven send failure from a
// FaultPlan — the simulation of a dropped connection write that a
// retrying sender would survive.
type InjectedError struct {
	Node NodeID
	To   NodeID
	Op   int64 // the sender-side operation index that drew the fault
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("comm: injected transient error on send %d from node %d to node %d", e.Op, e.Node, e.To)
}
