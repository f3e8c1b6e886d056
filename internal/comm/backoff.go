package comm

import (
	"time"

	"repro/internal/xrand"
)

// Backoff is the shared retry-delay policy for everything in this
// module that re-attempts a network operation: data-plane dials during
// cluster formation, control-plane dials from a serving front-end, and
// worker health probes. One definition keeps the cap and jitter shape
// identical across those paths instead of each caller growing its own
// ad-hoc copy.
//
// Delays grow exponentially from Base, capped at Cap, with full jitter
// in [delay/2, delay). Jitter is drawn from xrand keyed on (Key,
// attempt), so many concurrent retriers decorrelate deterministically
// — no shared rand state, and a seeded test replays the exact schedule.
type Backoff struct {
	// Base is the first delay (default 5ms).
	Base time.Duration
	// Cap bounds the grown delay (default 200ms).
	Cap time.Duration
	// Key decorrelates the jitter streams of concurrent retriers; use
	// something stable and distinct per retry site (peer index, hashed
	// address).
	Key uint64
}

// defaultBackoff is the dial-retry policy cluster formation has always
// used: snappy once the peer is up, spread out under contention.
func defaultBackoff(key uint64) Backoff {
	return Backoff{Base: 5 * time.Millisecond, Cap: 200 * time.Millisecond, Key: key}
}

// Delay returns the jittered sleep before retry number attempt
// (attempt 0 is the delay after the first failure).
func (b Backoff) Delay(attempt uint64) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	limit := b.Cap
	if limit <= 0 {
		limit = 200 * time.Millisecond
	}
	if limit < base {
		limit = base
	}
	d := base
	for i := uint64(0); i < attempt && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	// Full jitter in [d/2, d): backoff spreads retries over time,
	// jitter spreads them across retriers.
	return d/2 + time.Duration(xrand.Uniform01(b.Key, attempt)*float64(d/2))
}

// Retry calls op until it succeeds, the budget elapses, or op reports a
// permanent failure. op receives the attempt number; a sleep drawn from
// the backoff separates attempts, truncated so the loop never overruns
// the budget by more than one attempt. The last error is returned when
// the budget runs out.
func (b Backoff) Retry(budget time.Duration, op func(attempt uint64) error) error {
	deadline := time.Now().Add(budget)
	for attempt := uint64(0); ; attempt++ {
		err := op(attempt)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		sleep := b.Delay(attempt)
		if remain := time.Until(deadline); sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
	}
}
