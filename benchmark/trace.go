package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// The traced run's spans. The benchmark records one span around every
// call it makes into a layer (name = "<layer>.<call>"), each with the
// span that caused it and the id of the workload operation it belongs
// to. Spans stay in memory and are written once, at exit, as Chrome
// trace_event JSON next to the engine's own phase spans, which arrive
// through the obs.Tracer the benchmark hands to core.

type span struct {
	name       string
	start, end time.Duration
	parent     int   // span id, 0 = none
	op         int64 // workload operation id, 0 = none
}

// recorder collects spans. A nil *recorder is tracing off: begin
// returns 0 and end ignores it.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (index + 1).
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, op: op})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the benchmark's spans (pid 0) and each engine tracer's
// captured phase events (pid 1, 2, …; one track per node) in one Chrome
// trace file.
func (r *recorder) write(path string, engines ...*obs.Tracer) error {
	if r == nil {
		return nil
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < s.start {
			continue // never closed: the call it wrapped did not return
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "benchmark", Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 0, Tid: int(s.op % 8),
			Args: map[string]any{"id": i + 1, "parent": s.parent, "op": s.op},
		})
	}
	r.mu.Unlock()
	for i, engine := range engines {
		shift := engine.Epoch().Sub(r.epoch)
		for _, ev := range engine.Events() {
			events = append(events, chromeEvent{
				Name: ev.Phase.String(), Cat: "engine", Ph: "X", Ts: us(ev.Start + shift), Dur: us(ev.Dur),
				Pid: 1 + i, Tid: ev.Node,
				Args: map[string]any{"iter": ev.Iter, "step": ev.Step, "group": ev.Group},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
