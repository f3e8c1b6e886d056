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
	// Endpoints optionally supplies pre-connected transport endpoints
	// (e.g. comm.NewTCPClusterLoopback). When nil, an in-memory
	// cluster is created. len(Endpoints) must equal NumNodes.
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
	// its transport can re-form, so NewDistributedNode and NewCluster
	// over Endpoints refuse a positive value.
	MaxRestarts int
	// Fault, when non-nil, layers deterministic fault injection over the
	// cluster's transport — the chaos-testing substrate. The plan's
	// one-shot crash state and counters survive Reset, so a recovery
	// re-run proceeds against the remaining schedule.
	Fault *comm.FaultPlan

	// warnings records non-fatal adjustments validateAndDefault made
	// to explicitly set but out-of-range fields, surfaced through
	// Cluster.Stats().Warnings so misconfiguration is visible.
	warnings []string
}

// Warnings lists configuration adjustments recorded during validation
// (nil before a cluster is built from these options).
func (o Options) Warnings() []string { return o.warnings }

// validateAndDefault checks o and fills defaults. Error messages name
// the CLI flag conventionally bound to the offending field so
// command-line users can see what to change.
func (o *Options) validateAndDefault() error {
	o.warnings = nil
	if o.NumNodes < 1 {
		return fmt.Errorf("core: NumNodes = %d (flag -nodes): need at least 1 machine", o.NumNodes)
	}
	// A zero NumBuffers/Workers means "unset, use the default"; other
	// out-of-range values were explicitly chosen, so clamping them
	// silently would hide a misconfiguration — record it.
	if o.NumBuffers < 1 {
		if o.NumBuffers != 0 {
			o.warnings = append(o.warnings,
				fmt.Sprintf("NumBuffers clamped from %d to 1 (flag -buffers)", o.NumBuffers))
		}
		o.NumBuffers = 1
	}
	if o.NumBuffers > maxNumBuffers {
		return fmt.Errorf("core: NumBuffers = %d (flag -buffers): at most %d ranges per step", o.NumBuffers, maxNumBuffers)
	}
	if o.Workers < 1 {
		if o.Workers != 0 {
			o.warnings = append(o.warnings,
				fmt.Sprintf("Workers clamped from %d to 1 (flag -workers)", o.Workers))
		}
		o.Workers = 1
	}
	if o.DepThreshold < 0 {
		return fmt.Errorf("core: DepThreshold = %d (flag -threshold): must be ≥ 0", o.DepThreshold)
	}
	if o.StallTimeout < 0 {
		o.warnings = append(o.warnings,
			fmt.Sprintf("StallTimeout clamped from %v to 0 (flag -stall-timeout)", o.StallTimeout))
		o.StallTimeout = 0
	}
	if o.CheckpointEvery < 0 {
		o.warnings = append(o.warnings,
			fmt.Sprintf("CheckpointEvery clamped from %d to 0 (flag -checkpoint-every)", o.CheckpointEvery))
		o.CheckpointEvery = 0
	}
	if o.MaxRestarts < 0 {
		o.warnings = append(o.warnings,
			fmt.Sprintf("MaxRestarts clamped from %d to 0 (flag -max-restarts)", o.MaxRestarts))
		o.MaxRestarts = 0
	}
	if o.Endpoints != nil && len(o.Endpoints) != o.NumNodes {
		return fmt.Errorf("core: %d endpoints for %d nodes (flag -nodes must match Options.Endpoints)", len(o.Endpoints), o.NumNodes)
	}
	switch o.Mode {
	case ModeSympleGraph, ModeGemini:
	default:
		return fmt.Errorf("core: unknown mode %v (flag -mode): want symplegraph or gemini", o.Mode)
	}
	return nil
}
