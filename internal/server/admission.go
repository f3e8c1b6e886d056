package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errOverloaded is returned by admit when the waiting queue is full;
// the handler maps it to 429 with a Retry-After estimate.
var errOverloaded = errors.New("server overloaded: admission queue full")

// admission is the bounded two-stage gate in front of the engine:
// at most maxInflight queries execute concurrently, at most maxQueue
// more wait for a slot, and everything beyond that is rejected
// immediately so load shedding happens at the door instead of as
// unbounded goroutine pile-up.
type admission struct {
	queue    chan struct{} // tokens for waiting positions
	inflight chan struct{} // tokens for executing queries
	waiting  atomic.Int64
	running  atomic.Int64
	rejected atomic.Int64
}

// newAdmission sizes the gate from New's filled Config: maxInflight at
// least 1, maxQueue at least 0.
func newAdmission(maxInflight, maxQueue int) *admission {
	return &admission{
		queue:    make(chan struct{}, maxQueue),
		inflight: make(chan struct{}, maxInflight),
	}
}

// admit tries to enter the gate: an immediate errOverloaded when the
// waiting queue is full, ctx.Err() when the request's deadline fires
// while queued, otherwise a release func and the time spent waiting.
func (a *admission) admit(ctx context.Context) (release func(), wait time.Duration, err error) {
	start := time.Now()
	// Fast path: an execution slot is free, skip the queue entirely.
	select {
	case a.inflight <- struct{}{}:
		a.running.Add(1)
		return a.releaseFunc(), time.Since(start), nil
	default:
	}
	// Claim a waiting position or shed the request.
	select {
	case a.queue <- struct{}{}:
	default:
		a.rejected.Add(1)
		return nil, 0, errOverloaded
	}
	a.waiting.Add(1)
	defer func() {
		a.waiting.Add(-1)
		//sgvet:ignore ctxblock returns this goroutine's own token to a buffered channel it filled; capacity guarantees room, so the receive never blocks
		<-a.queue
	}()
	select {
	case a.inflight <- struct{}{}:
		a.running.Add(1)
		return a.releaseFunc(), time.Since(start), nil
	case <-ctx.Done():
		return nil, time.Since(start), ctx.Err()
	}
}

func (a *admission) releaseFunc() func() {
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			a.running.Add(-1)
			//sgvet:ignore ctxblock returns this goroutine's own token to a buffered channel it filled; capacity guarantees room, so the receive never blocks
			<-a.inflight
		}
	}
}

// retryAfter estimates how long a shed client should back off: the
// queue's expected drain time given the mean engine latency, never less
// than a second.
func retryAfter(meanEngine time.Duration, waiting, maxInflight int64) time.Duration {
	if meanEngine <= 0 {
		meanEngine = 100 * time.Millisecond
	}
	if maxInflight < 1 {
		maxInflight = 1
	}
	est := meanEngine * time.Duration(waiting+1) / time.Duration(maxInflight)
	if est < time.Second {
		return time.Second
	}
	return est.Round(time.Second)
}
