package sgvet

import (
	"go/ast"
	"go/types"

	"repro/internal/loader"
)

// Facts is the per-package cache of the flow-sensitive engine: the
// function-declaration index, memoized CFGs (shared by three analyzers),
// and the bottom-up summaries bufown computes on demand. One Facts value
// is built per package per Run and handed to every analyzer through
// the Pass, so a helper's summary is computed once however many call
// sites reach it.
//
// Summaries are depth-bounded (maxSummaryDepth, the same discipline as
// the §4 analysis in internal/analyzer) and memoized with an
// in-progress marker, so mutual recursion degrades to "no summary"
// instead of looping.
type Facts struct {
	pkg   *loader.Package
	decls map[types.Object]*ast.FuncDecl

	cfgs map[ast.Node]*CFG

	bufownSums map[types.Object]*bufownSummary
	bufownBusy map[types.Object]bool
}

// maxSummaryDepth bounds transitive helper-summary computation: a
// release more than four in-package calls deep
// is out of scope, matching packageHelperDepth in internal/analyzer.
const maxSummaryDepth = 4

func newFacts(pkg *loader.Package) *Facts {
	f := &Facts{
		pkg:        pkg,
		decls:      map[types.Object]*ast.FuncDecl{},
		cfgs:       map[ast.Node]*CFG{},
		bufownSums: map[types.Object]*bufownSummary{},
		bufownBusy: map[types.Object]bool{},
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				f.decls[obj] = fd
			}
		}
	}
	return f
}

// CFG returns the memoized control-flow graph of a function
// declaration or literal.
func (f *Facts) CFG(fn ast.Node) *CFG {
	if g, ok := f.cfgs[fn]; ok {
		return g
	}
	g := FuncCFG(fn)
	f.cfgs[fn] = g
	return g
}

// DeclOf resolves a function object to its in-package declaration, or
// nil for externals, interface methods, and func-typed values.
func (f *Facts) DeclOf(obj types.Object) *ast.FuncDecl {
	if obj == nil {
		return nil
	}
	return f.decls[obj]
}

// calleeObj resolves the object a call invokes: a plain function for
// ident calls, the method object for selector calls, the generic
// function for an explicit instantiation (f[T](...)). Returns nil for
// func-typed values, type conversions resolve to the type object
// (filtered by the *types.Func assertion).
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// callArgs returns a call's effective argument expressions with the
// receiver first for method calls — the summary convention: parameter
// #0 of a method summary is the receiver.
func callArgs(call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		args := make([]ast.Expr, 0, len(call.Args)+1)
		args = append(args, sel.X)
		return append(args, call.Args...)
	}
	return call.Args
}

// funcParams returns the declared parameter objects of fd in summary
// order: receiver first when present, then the parameter list.
// Unnamed and blank parameters yield nil entries so indexes stay
// positional.
func funcParams(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				out = append(out, info.Defs[name])
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return out
}
