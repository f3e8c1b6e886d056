package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Engine is the surface the serving and algorithm layers program
// against: everything they need from a cluster — running SPMD programs,
// lifecycle (poison/reset/close), statistics, and the per-request hooks
// a pool binds before dispatching a query — without naming the concrete
// implementation.
//
// *Cluster is the canonical implementation: NewCluster builds both the
// in-process simulation and this process's machines of a genuinely
// distributed ring (Options.Endpoints). The serving layer adds a
// remote implementation that fronts a cluster of worker processes; an
// algorithm written against Engine runs unchanged on any of them.
type Engine interface {
	// Graph returns the graph the engine was built over.
	Graph() *graph.Graph
	// Options returns the engine's configuration.
	Options() Options

	// Run executes prog SPMD-style across the engine's machines and
	// blocks until every machine this process hosts has finished. It
	// runs under the SetBaseContext context and applies
	// Options.MaxRestarts; it is the only way to run a program.
	Run(prog func(w *Worker) error) error

	// Poisoned returns the error of the failed run that poisoned the
	// engine, or nil while it is healthy.
	Poisoned() error
	// Reset re-forms a poisoned engine in place when the implementation
	// supports it; implementations that cannot (a cluster over external
	// endpoints does not own its peers) return an error and the caller
	// rebuilds.
	Reset() error
	// Close releases the engine's transport and resources.
	Close() error

	// Stats returns the full statistics snapshot for the most recent
	// run; Stats().Totals holds the aggregate totals.
	Stats() StatsSnapshot

	// SetBaseContext installs the context governing Run (nil restores
	// context.Background); SetTracer swaps the tracer subsequent runs
	// record into. A serving layer binds both per leased request and
	// clears them on release. Neither may be called while a run is in
	// progress.
	SetBaseContext(ctx context.Context)
	SetTracer(tr *obs.Tracer)
}

// *Cluster is the reference Engine implementation.
var _ Engine = (*Cluster)(nil)
