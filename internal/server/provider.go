package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// engine is one schedulable query engine as the pool sees it: the full
// core.Engine surface plus the per-request binding hooks. The pool
// leases engines without knowing whether they are in-process clusters
// or front-ends to a ring of worker processes.
type engine interface {
	core.Engine

	// BindQuery prepares the engine for one leased request: the
	// request's context governs the run, a capturing tracer replaces
	// the shared one when non-nil, and — for implementations that
	// schedule remote workers — the canonicalized query is announced to
	// every machine so the SPMD programs line up. An error means the
	// engine could not be prepared; the pool treats it like a poisoned
	// run.
	BindQuery(ctx context.Context, q Request, key string, tr *obs.Tracer) error

	// FinishQuery completes the request's engine-side protocol on
	// release (collecting worker acknowledgements, surfacing failures
	// the local run did not observe). A non-nil error marks the engine
	// unfit for reuse; the pool retires it.
	FinishQuery() error
}

// buildSpec describes one engine the pool builds: in process through
// newLocalEngine, or on the worker ring through the remote provider.
// It is assembled by the snapshot accessor, so the graph, epoch and
// fingerprints are mutually consistent by construction; a build reading
// spec.Graph is epoch-pinned for free.
type buildSpec struct {
	// GraphName is the serving name; Graph the (variant-derived) graph
	// an in-process engine loads.
	GraphName string
	Variant   graphVariant
	Graph     *graph.Graph
	// Mode is the engine mode this slot serves.
	Mode core.Mode
	// SlotID is the pool-unique slot number, for checkpoint roots and
	// diagnostics.
	SlotID int

	// Epoch identifies the graph version; FP is its directed snapshot's
	// chained fingerprint. One graph per epoch ships: a worker derives
	// Variant from that snapshot itself.
	Epoch uint64
	FP    string
	// Blob lazily serializes the directed snapshot (memoized on it) for
	// full-graph shipping; delta shipping never calls it.
	Blob func() ([]byte, string, error)
	// ParentFP and Delta, set past the root epoch, offer the cheap ship
	// path: a worker holding ParentFP applies the committed batch Delta
	// encodes, after checking FP == ChainFingerprint(ParentFP, bytes).
	ParentFP string
	Delta    func() []byte
}

// newLocalEngine is the one constructor of in-process engines: the
// "local" provider's slots, and the remote provider's degraded fallback
// (which passes no checkpoint root).
func newLocalEngine(spec buildSpec, opts core.Options, tr *obs.Tracer, checkpointRoot string) (*localEngine, error) {
	opts.Mode = spec.Mode
	opts.Tracer = tr
	var fs *core.FileCheckpointStore
	if checkpointRoot != "" {
		var err error
		fs, err = core.NewFileCheckpointStore(filepath.Join(checkpointRoot, fmt.Sprintf("slot-%d", spec.SlotID)))
		if err != nil {
			return nil, fmt.Errorf("checkpoint store for slot %d: %w", spec.SlotID, err)
		}
		// A caller's store is never cleared at program start: the slot
		// store is cleared by tag (BindQuery), so one query's snapshots
		// never leak into another and a restarted daemon re-running the
		// same query resumes it.
		opts.Checkpoints = fs
	}
	eng, err := core.NewCluster(spec.Graph, opts)
	if err != nil {
		return nil, fmt.Errorf("building cluster for %s/%v: %w", spec.GraphName, spec.Variant, err)
	}
	return &localEngine{Engine: eng, fs: fs}, nil
}

// localEngine decorates an in-process cluster with the per-request
// binding the pool expects: context, tracer, and the checkpoint-store
// tag that keeps one query's snapshots from leaking into the next.
type localEngine struct {
	core.Engine
	fs *core.FileCheckpointStore // nil when checkpointing is in-memory
}

func (e *localEngine) BindQuery(ctx context.Context, q Request, key string, tr *obs.Tracer) error {
	e.SetBaseContext(ctx)
	if tr != nil {
		e.SetTracer(tr)
	}
	if e.fs != nil {
		// Re-tag with the query key and the cluster shape: wipes the
		// snapshots of another query, or of this one over another partition
		// (-nodes, -threshold); keeps them when the same query resumes.
		e.fs.SetTag(fmt.Sprintf("%s|nodes=%d|threshold=%d", key, e.Options().NumNodes, e.Options().DepThreshold))
	}
	return nil
}

func (e *localEngine) FinishQuery() error { return nil }

// removeStore deletes the slot's checkpoint directory; the pool calls it
// when it retires the slot for good (never at shutdown, so a restarted
// daemon still finds what it saved).
func (e *localEngine) removeStore() {
	if e.fs != nil {
		_ = os.RemoveAll(e.fs.Dir()) // a directory left behind costs disk, never an answer
	}
}
