package sgvet

import (
	"slices"

	"repro/internal/analyzer"
)

// DepBreak enforces the paper's §4 invariant: every early exit from a
// dense-signal UDF's neighbor traversal must be announced with
// ctx.EmitDep(), or downstream machines keep scanning neighbors the
// algorithm already resolved — and, worse, algorithms that *rely* on
// the skip (K-core's counting cut-off, sampling's prefix walk) silently
// compute wrong byte counts or wrong answers on >1 machines. This is
// the uninstrumented-UDF trap: code that compiles, runs, and degrades
// the guarantee without any error.
//
// The check reads the same record `sgc analyze` prints and `sgc
// instrument` rewrites from, over the loaded package: it sees through
// aliased contexts and neighbor slices, labeled breaks, and helper
// functions the slice is handed to (interprocedural breaks). Its advice
// follows what the instrumenter can do — it patches breaks; a return or
// a helper's exit needs its ctx.EmitDep() written by hand. Intentional
// machine-local exits are declared with //sgc:local on the exit. It
// stays a matcher over that record, not a CFG question: "covered" must
// mean what the rewriter emits (DESIGN §5.1).
//
// Evidence: the invariant is the paper's §4, and the helper break is
// the failure a per-function pass cannot see — testdata/sgc/udfpkg's
// viaHelper exits its traversal inside firstActive, which the isolated
// `sgc analyze` misses and the loaded package must report
// (TestSgcAnalyzeJSONGolden).
var DepBreak = &Analyzer{
	Name: "depbreak",
	Doc:  "neighbor-loop early exit without ctx.EmitDep() in a signal UDF",
	Run:  runDepBreak,
}

func runDepBreak(p *Pass) {
	for _, f := range analyzer.AnalyzeFiles(p.Pkg.Fset, p.Pkg.Files, p.Pkg.Info) {
		for _, l := range f.Loops {
			for _, line := range l.UncoveredExits {
				fix := "run `sgc instrument`"
				if slices.Contains(l.UncoveredReturns, line) {
					fix = "add `ctx.EmitDep()` before the exit"
				}
				p.ReportAt(f.Path, line, 1,
					"signal UDF %s: neighbor-loop early exit without ctx.EmitDep() — the loop-carried dependency is not propagated (%s, or mark a machine-local exit with //sgc:local)", f.Name, fix)
			}
		}
		for _, ib := range f.InterBreaks {
			if ib.Covered {
				continue
			}
			p.ReportAt(f.Path, ib.CallLine, 1,
				"signal UDF %s: helper %s exits neighbor traversal early (line %d) without ctx.EmitDep() — interprocedural loop-carried dependency is not propagated (add `ctx.EmitDep()` before the exit)", f.Name, ib.Callee, ib.ExitLine)
		}
	}
}
