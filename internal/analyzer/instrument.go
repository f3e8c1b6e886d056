package analyzer

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"slices"
)

// Instrument runs the source-to-source transformation pass (paper §4.2)
// on a complete Go file taken in isolation. It rewrites what the record
// lists: in every dense-signal UDF, ctx.EmitDep() goes immediately before
// each uncovered break that leaves a neighbor loop — plain or labeled,
// through aliases of the slice or the context — and ctx.Edge() becomes
// the loop body's first statement. Returns and helper exits are reported,
// not patched, and //sgc:local exits are left alone. A function that
// already calls EmitDep — instrumented by hand, or partly: the paper's
// Listing 2 — gets the EmitDep calls it lacks and keeps its traversal
// accounting as written (sampling's re-walk of neighbors already counted
// has no ctx.Edge() on purpose). Covered exits are not in the list, so a
// second pass over the output changes nothing. It returns the formatted
// transformed source and the record of the input.
func Instrument(filename string, src []byte) ([]byte, *Report, error) {
	w, err := isolated(filename, src)
	if err != nil {
		return nil, nil, err
	}
	rep := isolatedReport(filename, w.funcs())

	// insertion is one ctx.method() statement to place at slot idx of a
	// statement list.
	type insertion struct {
		exit
		ctx, method string
	}
	var emits, edges []insertion
	// A loop reached from two records (a UDF literal nested in a UDF) is
	// rewritten once, for the first.
	done := map[ast.Node]bool{}
	for _, f := range rep.Funcs {
		for _, l := range f.Loops {
			if done[l.body] {
				continue
			}
			done[l.body] = true
			for _, ex := range l.patch {
				if !done[ex.stmt] {
					done[ex.stmt] = true
					emits = append(emits, insertion{ex, f.CtxParam, "EmitDep"})
				}
			}
			if !l.edged && !f.emitsDep {
				edges = append(edges, insertion{exit{list: &l.body.List}, f.CtxParam, "Edge"})
			}
		}
	}
	// Last slot first, so an insertion never shifts a slot still to be
	// filled in the same list; loop heads after every exit for the same
	// reason.
	slices.SortFunc(emits, func(a, b insertion) int { return int(b.stmt.Pos() - a.stmt.Pos()) })
	for _, in := range append(emits, edges...) {
		call := &ast.CallExpr{Fun: &ast.SelectorExpr{X: ast.NewIdent(in.ctx), Sel: ast.NewIdent(in.method)}}
		*in.list = slices.Insert(*in.list, in.idx, ast.Stmt(&ast.ExprStmt{X: call}))
	}

	var buf bytes.Buffer
	if err := format.Node(&buf, w.fset, w.files[0]); err != nil {
		return nil, nil, fmt.Errorf("analyzer: formatting instrumented source: %w", err)
	}
	return buf.Bytes(), rep, nil
}
