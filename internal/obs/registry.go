package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Registry is a flat namespace of live metrics: each name maps to a
// function sampled at snapshot time, so registered values (endpoint
// byte counters, tracer summaries, a service's status document) are
// always current without any update path. Snapshots marshal to JSON
// with sorted keys, making exports diff cleanly.
type Registry struct {
	mu   sync.Mutex
	vars map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]func() any)}
}

// Register binds name to a sampling function. Re-registering a name
// replaces the previous binding.
func (r *Registry) Register(name string, fn func() any) {
	r.mu.Lock()
	r.vars[name] = fn
	r.mu.Unlock()
}

// RegisterInt binds name to an int64 gauge.
func (r *Registry) RegisterInt(name string, fn func() int64) {
	r.Register(name, func() any { return fn() })
}

// Set binds name to a constant value (configuration echoes).
func (r *Registry) Set(name string, v any) {
	r.Register(name, func() any { return v })
}

// Snapshot samples every registered metric.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fns := make(map[string]func() any, len(r.vars))
	for k, fn := range r.vars {
		fns[k] = fn
	}
	r.mu.Unlock()
	out := make(map[string]any, len(fns))
	for k, fn := range fns {
		out[k] = fn()
	}
	return out
}

// WriteJSON writes an indented JSON snapshot with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// RegisterTracer exposes a tracer's per-(node, phase) aggregates under
// prefix: count, total/p50/p95/max nanoseconds per histogram, and the
// event-capture drop counter.
func (r *Registry) RegisterTracer(prefix string, t *Tracer) {
	if t == nil {
		return
	}
	r.Register(prefix, func() any {
		sums := t.Summaries()
		out := make(map[string]any, len(sums)+1)
		for _, s := range sums {
			key := fmt.Sprintf("node%d.%s", s.Node, s.Phase)
			out[key] = map[string]int64{
				"count":  s.Hist.Count,
				"sum_ns": int64(s.Hist.Sum),
				"p50_ns": int64(s.Hist.P50),
				"p95_ns": int64(s.Hist.P95),
				"max_ns": int64(s.Hist.Max),
			}
		}
		out["events_dropped"] = t.Dropped()
		return out
	})
}
