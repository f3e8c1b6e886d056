package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// StallError reports a receive — a pass's or a collective's — that exceeded
// Options.StallTimeout: the structured replacement for a run hanging
// forever behind a slow, partitioned or dead peer. It names the blocked
// node, the engine phase it was executing, and the exact awaited stream,
// so an operator (or a recovery policy) knows who to blame.
type StallError struct {
	// Node is the machine whose receive stalled.
	Node int
	// Phase is the engine phase that was blocked (DepWait, UpdateWait,
	// Barrier for any collective).
	Phase obs.Phase
	// From, Kind, Tag identify the awaited message stream.
	From comm.NodeID
	Kind comm.Kind
	Tag  int32
	// Timeout is the deadline that fired.
	Timeout time.Duration

	cause error // the transport's *comm.TimeoutError
}

func (e *StallError) Error() string {
	return fmt.Sprintf("core: node %d stalled in %v for %v awaiting (from=%d kind=%v tag=%d)",
		e.Node, e.Phase, e.Timeout, e.From, e.Kind, e.Tag)
}

// Unwrap exposes the underlying transport timeout.
func (e *StallError) Unwrap() error { return e.cause }

// PoisonedError is returned by Run on a cluster whose previous run
// failed: the transport was closed to unblock the surviving workers and
// must be re-formed with Reset before the cluster is usable again.
type PoisonedError struct {
	// Cause is the error that poisoned the cluster.
	Cause error
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("core: cluster poisoned by a failed run (%v); call Reset before running again", e.Cause)
}

// Unwrap exposes the poisoning run's error.
func (e *PoisonedError) Unwrap() error { return e.Cause }

// IsRecoverable classifies a run error for restart policies: stalls,
// peer loss and injected faults are survivable by re-forming the cluster
// and resuming from a checkpoint; protocol violations (desynchronized
// SPMD streams) and program errors are bugs that a retry would only
// replay.
func IsRecoverable(err error) bool {
	var pe *comm.ProtocolError
	if errors.As(err, &pe) {
		return false
	}
	var (
		stall    *StallError
		closed   *comm.ClosedError
		timeout  *comm.TimeoutError
		crash    *comm.CrashError
		injected *comm.InjectedError
	)
	return errors.As(err, &stall) || errors.As(err, &closed) ||
		errors.As(err, &timeout) || errors.As(err, &crash) || errors.As(err, &injected)
}
