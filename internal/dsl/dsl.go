// Package dsl provides the fold_while interface the paper proposes as an
// explicit alternative to UDF analysis (§4.3): "a new functional
// interface fold_while to replace the for-loop. It specifies a state
// machine and takes three parameters: initial dependency data, a function
// that composes dependency state and current neighbor, a condition that
// exits the loop."
//
// A FoldWhile declares the loop-carried state explicitly, so the
// "compiler" — here Compile — can generate the instrumented dense signal
// mechanically: state loads from the dependency lanes, the stop condition
// becomes EmitDep, and the residual state saves back to the lanes for the
// next machine in the ring. No static analysis is needed.
package dsl

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// FoldWhile is a declarative neighbor fold with loop-carried state S and
// update message type M.
//
// The zero value of the lane encoding must equal Init's result: the first
// machine in the circulant ring receives all-zero lanes and must observe
// the initial state. (All the paper's algorithms satisfy this naturally —
// counts and prefix sums start at 0.)
type FoldWhile[S, M any] struct {
	// Init returns the fold's initial state for a destination.
	Init func(dst graph.VertexID) S
	// Step folds one neighbor into the state and reports whether the
	// exit condition fired (the paper's "condition that exits the
	// loop").
	Step func(s S, dst, u graph.VertexID, w float32) (S, bool)
	// Emit produces the update message sent to the master when the exit
	// condition fired on neighbor u. Returning false sends nothing.
	Emit func(s S, dst, u graph.VertexID) (M, bool)
	// Partial produces the update message sent when the scan finishes
	// without firing and the state cannot be carried onward (untracked
	// vertices, Gemini mode, single machine) — the parallel-
	// decomposable fallback. nil sends nothing.
	Partial func(s S, dst graph.VertexID) (M, bool)
	// Lanes is the number of float64 dependency lanes the state needs
	// (0 for pure control dependency).
	Lanes int
	// Save encodes the state into the dependency lanes; Load decodes
	// it. Both may be nil when Lanes is 0.
	Save func(s S, lanes []float64)
	// Load decodes the carried state.
	Load func(lanes []float64) S
}

// Compile generates the instrumented dense-signal UDF and the lane count
// for core.DenseParams — the DSL equivalent of the analyzer's Figure 5
// transformation.
func Compile[S any, M core.Wire](fw FoldWhile[S, M]) (func(ctx *core.DenseCtx[M], dst graph.VertexID, srcs []graph.VertexID, ws []float32), int) {
	signal := func(ctx *core.DenseCtx[M], dst graph.VertexID, srcs []graph.VertexID, ws []float32) {
		var s S
		carried := ctx.Tracked()
		if carried && fw.Lanes > 0 {
			lanes := make([]float64, fw.Lanes)
			for l := range lanes {
				lanes[l] = ctx.DepFloat(l)
			}
			s = fw.Load(lanes)
		} else {
			s = fw.Init(dst)
		}
		for i, u := range srcs {
			ctx.Edge()
			w := float32(1)
			if ws != nil {
				w = ws[i]
			}
			var stop bool
			s, stop = fw.Step(s, dst, u, w)
			if stop {
				if m, ok := fw.Emit(s, dst, u); ok {
					ctx.Emit(m)
				}
				ctx.EmitDep()
				return
			}
		}
		if carried && fw.Lanes > 0 {
			lanes := make([]float64, fw.Lanes)
			fw.Save(s, lanes)
			for l, v := range lanes {
				ctx.SetDepFloat(l, v)
			}
			return
		}
		if fw.Partial != nil {
			if m, ok := fw.Partial(s, dst); ok {
				ctx.Emit(m)
			}
		}
	}
	return signal, fw.Lanes
}

// Params assembles a complete core.DenseParams from the fold plus the
// caller's slot functions; a caller that filters destinations
// sets Active/Except on the result.
//
// finalize runs at the master for tracked destinations whose fold
// completed the whole ring *without* firing, receiving the final carried
// state. When the fold fired, the breaking machine's Emit message already
// delivered the outcome (and the carried lanes stop updating), so
// finalize is not invoked — exactly one of Emit/finalize reports per
// tracked destination.
func Params[S any, M core.Wire](fw FoldWhile[S, M],
	slot func(graph.VertexID, M),
	finalize func(dst graph.VertexID, s S)) core.DenseParams[M] {
	signal, lanes := Compile(fw)
	p := core.DenseParams[M]{
		Signal: signal,
		Slot:   slot,
		Lanes:  lanes,
	}
	if finalize != nil {
		p.Finalize = func(dst graph.VertexID, skip bool, data []float64) {
			if skip {
				return
			}
			var s S
			if fw.Lanes > 0 {
				s = fw.Load(data)
			} else {
				s = fw.Init(dst)
			}
			finalize(dst, s)
		}
	}
	return p
}
