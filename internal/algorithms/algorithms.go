// Package algorithms implements the paper's five evaluation algorithms —
// direction-optimizing BFS, Maximal Independent Set, K-core, graph
// K-means, and weighted neighbor sampling (§2.1, Figure 3) — plus
// connected components and SSSP to demonstrate the substrate generality,
// all on the core engine's signal/slot API.
//
// Every algorithm runs unchanged in ModeGemini (the baseline) and
// ModeSympleGraph (dependency propagation), producing identical results;
// the difference is the work and traffic recorded in the cluster's
// RunStats. UDFs here are the instrumented forms of the paper's Figure 5:
// the engine performs receive_dep before invoking the signal, the UDF
// calls ctx.EmitDep at its break, and ctx.Edge where the analyzer inserts
// traversal accounting.
package algorithms

import (
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// None marks absent vertex values (no parent, no cluster, no pick).
const None = ^uint32(0)

// localFrontierList materializes this worker's master vertices in the
// frontier bitmap.
func localFrontierList(w *core.Worker, frontier *bitset.Bitmap) []graph.VertexID {
	lo, hi := w.MasterRange()
	out := make([]graph.VertexID, 0, frontier.CountSegment(lo, hi))
	frontier.RangeSegment(lo, hi, func(v int) bool {
		out = append(out, graph.VertexID(v))
		return true
	})
	return out
}
