// Package core is the SympleGraph distributed graph-processing runtime —
// the paper's primary contribution. It executes vertex-centric signal/slot
// programs SPMD-style across the machines of a cluster and, in
// SympleGraph mode, precisely enforces loop-carried dependency in dense
// (pull) edge processing: when a UDF breaks out of its neighbor loop, the
// remaining neighbors are skipped even when they live on other machines.
//
// The runtime implements the paper's three mechanisms:
//
//   - circulant scheduling (§5.1): each dense iteration runs in p steps;
//     in step j machine m processes the edge block destined to partition
//     (m+1+j) mod p, so each partition's mirror blocks are visited in a
//     fixed ring order and a dependency frame hops machine → left
//     neighbor, arriving at the master last;
//   - differentiated dependency propagation (§5.2): only vertices with
//     in-degree ≥ DepThreshold circulate dependency state; the rest fall
//     back to plain mirror→master updates;
//   - double buffering (§5.3, generalized to ≥2 buffers as in §6): each
//     step's tracked vertices are scanned in NumBuffers index ranges whose
//     dependency segments are sent as soon as the range is processed,
//     overlapping dependency communication with computation of the next
//     range.
//
// ModeGemini runs the identical engine with dependency propagation
// disabled — the paper's baseline ("Gemini can be considered as a special
// case without dependency communication").
package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Mode selects the execution strategy for dense edge processing.
type Mode int

const (
	// ModeSympleGraph enforces loop-carried dependency with circulant
	// scheduling and dependency communication.
	ModeSympleGraph Mode = iota
	// ModeGemini is the baseline: same schedule, no dependency
	// propagation, so every mirror block is processed in full.
	ModeGemini
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case ModeSympleGraph:
		return "symplegraph"
	case ModeGemini:
		return "gemini"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultDepThreshold is the degree cutoff for differentiated dependency
// propagation. The paper searched powers of two and "use 32 for all
// evaluation experiments" (§6).
const DefaultDepThreshold = 32

// maxNumBuffers bounds Options.NumBuffers: a dense pass reserves
// NumNodes·NumBuffers message tags and walks NumBuffers cuts per step, and
// ranges are 64-aligned, so more of them than this only adds empty ones.
const maxNumBuffers = 64

// Options configure a Cluster.
type Options struct {
	// NumNodes is the number of simulated machines p. Required ≥ 1.
	NumNodes int
	// Mode selects SympleGraph or the Gemini baseline. Defaults to
	// ModeSympleGraph.
	Mode Mode
	// DepThreshold enables differentiated dependency propagation: only
	// vertices with in-degree ≥ DepThreshold take part in dependency
	// communication. 0 disables differentiation (every vertex
	// participates). Ignored in ModeGemini.
	DepThreshold int
	// NumBuffers is the double-buffering range count per dense step: the
	// tracked vertices of a block are scanned in this many index ranges,
	// each range's dependency segment leaving for the next machine while
	// the following range scans. 1 (also what 0 selects) disables double
	// buffering — one dependency frame per step; the paper's default is
	// 2, and §6 generalizes to more buffers. Results and update traffic
	// do not depend on it; only dependency frame count and timing do.
	// At most 64.
	NumBuffers int
	// Workers is the number of worker goroutines per simulated machine
	// (the paper's per-node worker threads). Defaults to 1.
	Workers int
	// Link simulates interconnect latency and bandwidth for the
	// in-memory transport (nil = instant delivery). Ignored when
	// Endpoints is set.
	Link *comm.LinkModel
	// Endpoints, indexed by machine id, supplies pre-connected
	// transport endpoints (e.g. comm.NewTCPClusterLoopback, or one
	// comm.NewTCPEndpoint per process). The cluster hosts exactly the
	// machines it holds an endpoint for: it lays them out, runs the
	// program once for each, checkpoints them and reports their stats.
	// A nil entry is a machine another process hosts, and every process
	// of such a ring must load the same graph and call the same programs
	// in the same order; results materialize on the node-0 process. When
	// set, len(Endpoints) must equal NumNodes, at least one entry must be
	// non-nil, and entry i must be node i of NumNodes. When nil, an
	// in-memory cluster of every machine is created.
	Endpoints []comm.Endpoint
	// Tracer receives per-phase span timings from the workers (dense
	// steps and their scan/bin/flush sub-phases, dependency/update waits,
	// barriers). nil disables tracing; the hot paths then pay one pointer
	// test.
	Tracer *obs.Tracer

	// StallTimeout bounds every engine receive inside an edge-processing
	// pass: a receive blocked longer returns a *StallError naming the
	// blocked node, phase and awaited peer instead of hanging the run
	// forever behind a slow or dead machine. 0 disables the deadline.
	StallTimeout time.Duration
	// CheckpointEvery is the superstep checkpoint cadence K: programs
	// snapshot the state they declare (Worker.Checkpoint) every K
	// iterations, and a recovered run resumes from the last snapshot
	// every machine completed. 0 disables checkpointing.
	CheckpointEvery int
	// Checkpoints selects the stable storage snapshots land in. nil
	// selects a default in-memory store, which survives simulated
	// machine deaths but not a process death, and which Run clears for
	// every program. A caller's store is never cleared by the engine:
	// its first Restore adopts whatever a previous process incarnation
	// committed, and the caller clears or retags it (a
	// FileCheckpointStore's SetTag) between programs. Ignored when
	// CheckpointEvery is 0.
	Checkpoints CheckpointStore
	// MaxRestarts is how many times Run re-forms the cluster and
	// re-runs a program after a recoverable failure (stall, peer loss,
	// injected fault). 0 disables recovery. Only a cluster that owns
	// its transport can re-form, so NewCluster over Endpoints refuses a
	// positive value.
	MaxRestarts int
	// Fault, when non-nil, layers deterministic fault injection over the
	// cluster's transport — the chaos-testing substrate. The plan's
	// one-shot crash state and counters survive Reset, so a recovery
	// re-run proceeds against the remaining schedule.
	Fault *comm.FaultPlan
}

// validateAndDefault checks o and fills defaults: a zero field selects
// its default, and any other out-of-range value is an error. Error
// messages name the CLI flag conventionally bound to the offending field
// so command-line users can see what to change.
func (o *Options) validateAndDefault() error {
	if o.NumNodes < 1 {
		return fmt.Errorf("core: NumNodes = %d (flag -nodes): need at least 1 machine", o.NumNodes)
	}
	if o.NumBuffers < 0 || o.NumBuffers > maxNumBuffers {
		return fmt.Errorf("core: NumBuffers = %d (flag -buffers): need 1 to %d ranges per step, or 0 for the default", o.NumBuffers, maxNumBuffers)
	}
	if o.NumBuffers == 0 {
		o.NumBuffers = 1
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers = %d (flag -workers): must be ≥ 0", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.DepThreshold < 0 {
		return fmt.Errorf("core: DepThreshold = %d (flag -threshold): must be ≥ 0", o.DepThreshold)
	}
	if o.StallTimeout < 0 {
		return fmt.Errorf("core: StallTimeout = %v (flag -stall-timeout): must be ≥ 0", o.StallTimeout)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery = %d (flag -checkpoint-every): must be ≥ 0", o.CheckpointEvery)
	}
	if o.MaxRestarts < 0 {
		return fmt.Errorf("core: MaxRestarts = %d (flag -max-restarts): must be ≥ 0", o.MaxRestarts)
	}
	switch o.Mode {
	case ModeSympleGraph, ModeGemini:
	default:
		return fmt.Errorf("core: unknown mode %v (flag -mode): want symplegraph or gemini", o.Mode)
	}
	if o.Endpoints == nil {
		return nil
	}
	if len(o.Endpoints) != o.NumNodes {
		return fmt.Errorf("core: %d endpoints for %d nodes (flag -nodes must match Options.Endpoints)", len(o.Endpoints), o.NumNodes)
	}
	hosted := 0
	for i, ep := range o.Endpoints {
		if ep == nil {
			continue
		}
		hosted++
		if int(ep.ID()) != i || ep.N() != o.NumNodes {
			return fmt.Errorf("core: Endpoints[%d] is node %d of %d, options say node %d of %d (flag -nodes)", i, ep.ID(), ep.N(), i, o.NumNodes)
		}
	}
	if hosted == 0 {
		return fmt.Errorf("core: Endpoints holds no endpoint: a cluster hosts at least one machine")
	}
	// A cluster over external endpoints cannot Reset, so its recovery
	// loop could only fail, burying the run's typed error (*StallError,
	// a lost peer) under the Reset refusal.
	if o.MaxRestarts > 0 {
		return fmt.Errorf("core: MaxRestarts = %d (flag -max-restarts) needs a cluster-owned transport; over external endpoints, rebuild the cluster instead", o.MaxRestarts)
	}
	return nil
}
