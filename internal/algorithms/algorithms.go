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
// calls ctx.EmitDep at its break (its pass declares Breaks), and ctx.Edge
// where the analyzer inserts traversal accounting.
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

// pushFrom is the direction statistic (Beamer's switch) of every
// first-hit frontier pass — BFS levels, K-means adoption rounds, MIS's
// cover pass: push from the frontier when its out-edges number at most
// |E|/20, else pull. The frontier is replicated, so every node sums the
// same out-degrees and decides alike with no collective.
func pushFrom(g *graph.Graph, frontier *bitset.Bitmap) bool {
	limit, fe := g.NumEdges()/20, int64(0)
	frontier.Range(func(v int) bool {
		fe += int64(g.OutDegree(graph.VertexID(v)))
		return fe <= limit
	})
	return fe <= limit
}
