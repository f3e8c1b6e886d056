// Package obs is the engine's observability layer: a lightweight,
// allocation-conscious tracing and metrics subsystem built on the
// standard library only.
//
// It provides three surfaces:
//
//   - a Tracer/span API with a fixed phase taxonomy (sparse push, dense
//     circulant steps, dependency/update waits, barriers, buffer
//     flushes) that the core runtime emits per iteration × circulant
//     step × buffer group; spans aggregate into per-(node, phase)
//     duration histograms (p50/p95/max) rather than unbounded event
//     logs, with optional bounded event capture for timeline export;
//   - a metrics Registry of named values sampled at snapshot time and
//     exported as one JSON document: a cluster's byte counters
//     (per-kind and per-link traffic, frame counts, simulated-link
//     queueing delay) and tracer summaries, sgworker's worker.*
//     counters, and sgserve's whole /statusz document under one
//     "server" entry;
//   - export endpoints: a Chrome trace_event-format timeline writer
//     (chrome://tracing, Perfetto) and StartDebugServer, which serves
//     /debug/metrics (the registry), /debug/vars (the runtime's
//     memstats), /debug/trace and /debug/pprof.
//
// The package has no dependency on the engine; core and the CLIs thread
// a *Tracer and a *Registry through their options. A nil *Tracer is a
// valid no-op sink, so the hot paths pay a single pointer test when
// tracing is off.
package obs

import "fmt"

// Phase classifies a traced span of engine work. The taxonomy follows
// the paper's cost model (§5, §7): dense edge processing is dominated
// by per-step computation (PhaseDenseStep), the synchronization costs
// double buffering is designed to hide show up as PhaseDepWait and
// PhaseUpdateWait, and dependency-segment forwarding is PhaseDenseBin
// plus PhaseDenseFlush.
type Phase uint8

const (
	// PhaseSparsePush is one sparse (push-mode) edge-processing pass:
	// frontier scan plus update sends.
	PhaseSparsePush Phase = iota
	// PhaseDenseStep is one circulant step of a dense pass: processing
	// the edge block destined to one partition, including dependency
	// receives/sends for its buffer groups and the update send.
	PhaseDenseStep
	// PhaseDepWait is time blocked receiving a dependency frame from
	// the right neighbor — the stall double buffering hides (§5.3).
	PhaseDepWait
	// PhaseUpdateWait is time blocked receiving update messages.
	PhaseUpdateWait
	// PhaseBarrier is time spent in every collective: barrier, reduce,
	// bitmap sync, gathers — one span per call, sends and waits alike.
	PhaseBarrier
	// PhaseBufferFlush is recorded by no engine path: sending a
	// dependency segment is PhaseDenseBin plus PhaseDenseFlush. It
	// stays declared so the later phases keep their numbers and readers
	// that map every phase to a metric key keep compiling.
	PhaseBufferFlush
	// PhaseCheckpoint is the serialization and storage of one node's
	// superstep checkpoint.
	PhaseCheckpoint
	// PhaseRecovery is cluster re-formation plus checkpoint restore
	// after a failed run.
	PhaseRecovery
	// PhaseDenseScan is the dense step's signal loop over one stream of
	// a block — the low-degree stream, or one double-buffering range of
	// the tracked stream: edge reads and bin appends, no transport.
	// Sub-phase of PhaseDenseStep.
	PhaseDenseScan
	// PhaseDenseBin is frame assembly in the dense step: encoding one
	// range's dependency segment from the step's skip/lane state.
	// Sub-phase of PhaseDenseStep.
	PhaseDenseBin
	// PhaseDenseFlush is a vectored hand-off in the dense step (one
	// SendBufs): a dependency segment to the left neighbor, or the
	// step's update bins to the block's master. Sub-phase of
	// PhaseDenseStep.
	PhaseDenseFlush
	// NumPhases is the number of phases; valid phases are < NumPhases.
	NumPhases
)

// String returns the phase's canonical name, used in trace files and
// metric keys.
func (p Phase) String() string {
	switch p {
	case PhaseSparsePush:
		return "SparsePush"
	case PhaseDenseStep:
		return "DenseStep"
	case PhaseDepWait:
		return "DepWait"
	case PhaseUpdateWait:
		return "UpdateWait"
	case PhaseBarrier:
		return "Barrier"
	case PhaseBufferFlush:
		return "BufferFlush"
	case PhaseCheckpoint:
		return "Checkpoint"
	case PhaseRecovery:
		return "Recovery"
	case PhaseDenseScan:
		return "DenseScan"
	case PhaseDenseBin:
		return "DenseBin"
	case PhaseDenseFlush:
		return "DenseFlush"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Phases lists all valid phases in declaration order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}
