package sgvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
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
// It also holds each core.DenseParams literal's constant Breaks and
// Lanes to its Signal both ways: an EmitDep (or covered helper exit) a
// literal does not declare stays machine-local, a lane past Lanes is
// never carried, and a declared break or lane the Signal never uses
// costs frames that carry nothing.
//
// Evidence: the invariant is the paper's §4, and the helper break is
// the failure a per-function pass cannot see — testdata/sgc/udfpkg's
// viaHelper exits its traversal inside firstActive, which the isolated
// `sgc analyze` misses and the loaded package must report
// (TestSgcAnalyzeJSONGolden).
var DepBreak = &Analyzer{
	Name: "depbreak",
	Doc:  "neighbor-loop early exit without ctx.EmitDep() in a signal UDF, or a DenseParams declaration its signal disagrees with",
	Run:  runDepBreak,
}

func runDepBreak(p *Pass) {
	funcs := analyzer.AnalyzeFiles(p.Pkg.Fset, p.Pkg.Files, p.Pkg.Info)
	checkDeclarations(p, funcs)
	for _, f := range funcs {
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

// checkDeclarations finds each core.DenseParams literal's Signal, a func
// literal or a function of the package, among the records by position,
// and compares its declaration with the record.
func checkDeclarations(p *Pass, funcs []analyzer.FuncReport) {
	records := map[token.Position]*analyzer.FuncReport{}
	for i, f := range funcs {
		records[token.Position{Filename: f.Path, Line: f.Line}] = &funcs[i]
	}
	info := p.Pkg.Info
	p.inspectFiles(func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isNamed(info.TypeOf(lit), "internal/core", "DenseParams") {
			return true
		}
		fields := map[string]ast.Expr{}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fields[kv.Key.(*ast.Ident).Name] = kv.Value
			}
		}
		var sig token.Pos
		switch s := fields["Signal"].(type) {
		case *ast.FuncLit:
			sig = s.Pos()
		case *ast.Ident:
			if fn, ok := info.Uses[s].(*types.Func); ok && fn.Pkg() == p.Pkg.Types {
				sig = fn.Pos()
			}
		}
		pos := p.Pkg.Fset.Position(sig)
		f := records[token.Position{Filename: pos.Filename, Line: pos.Line}]
		if f == nil {
			return true
		}
		// declared returns a field's constant value (nil, reported, if it
		// is not one) and where a mismatch is reported.
		declared := func(field string, zero constant.Value) (constant.Value, ast.Expr) {
			e := fields[field]
			if e == nil {
				return zero, fields["Signal"]
			}
			v := info.Types[e].Value
			if v == nil {
				p.Reportf(e.Pos(), "DenseParams.%s of signal UDF %s is not a constant: depbreak cannot check it", field, f.Name)
			}
			return v, e
		}
		emits := f.EmitsDep || slices.ContainsFunc(f.InterBreaks, func(ib analyzer.InterBreak) bool { return ib.Covered })
		if breaks, at := declared("Breaks", constant.MakeBool(false)); breaks != nil && constant.BoolVal(breaks) != emits {
			p.Reportf(at.Pos(), "signal UDF %s: calls ctx.EmitDep %v, DenseParams declares Breaks %v (declare Breaks exactly when the signal emits a dependency)", f.Name, emits, breaks)
		}
		if lanes, at := declared("Lanes", constant.MakeInt64(0)); lanes != nil {
			if n, _ := constant.Int64Val(lanes); n != int64(f.Lanes) {
				p.Reportf(at.Pos(), "signal UDF %s: uses %d dependency lanes, DenseParams declares Lanes %d (an undeclared lane is never carried, an unused one ships for nothing)", f.Name, f.Lanes, n)
			}
		}
		return true
	})
}
