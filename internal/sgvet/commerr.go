package sgvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CommErr polices the comm/engine error taxonomy: transport and
// engine failures travel as wrapped typed errors (*comm.TimeoutError,
// *comm.CrashError, *core.StallError, ...), so classification must use
// errors.As / errors.Is — pointer identity (==) is never true for a
// wrapped error, which silently turns a "recoverable, restart the
// superstep" decision into a fatal abort. Likewise, a discarded error
// from a comm or engine call drops a crash report on the floor and the
// recovery loop never fires.
//
// Rules:
//
//  1. ==/!= where one operand is a pointer to a taxonomy error type
//     (a *...Error from repro/internal/comm or repro/internal/core)
//     → use errors.As.
//  2. ==/!= between two error-typed operands, neither nil → use
//     errors.Is (sentinels like http.ErrServerClosed arrive wrapped).
//  3. An error result from a repro/internal/comm or repro/internal/core
//     call discarded via a bare call statement or a blank identifier.
//     Close in a defer is conventionally fire-and-forget and exempt.
//
// Evidence: rule 2 caught the debug server's serve loop comparing
// http.ErrServerClosed by identity, so a wrapped close read as a
// failure; internal/obs's TestServeResultClassifiesWrappedClose pins
// the fix. Rule 3 backs 13 justified suppressions in internal/server,
// each a best-effort send or deadline whose failure later traffic
// reports.
var CommErr = &Analyzer{
	Name: "commerr",
	Doc:  "comm/engine taxonomy errors compared by identity or discarded",
	Run:  runCommErr,
}

func runCommErr(p *Pass) {
	for _, f := range p.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch s := n.(type) {
			case *ast.BinaryExpr:
				commErrCompare(p, s)
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					commErrDiscard(p, call, parentOf(stack))
				}
			case *ast.AssignStmt:
				commErrBlankAssign(p, s)
			}
			return true
		})
	}
}

// parentOf returns the statement enclosing the node on top of the
// stack (stack[len-1] is the current node).
func parentOf(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

func commErrCompare(p *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	info := p.Pkg.Info
	xt, xok := info.Types[be.X]
	yt, yok := info.Types[be.Y]
	if !xok || !yok {
		return
	}
	if xt.IsNil() || yt.IsNil() {
		return // err != nil is the one identity check that's correct
	}
	if taxonomyErrorPtr(xt.Type) || taxonomyErrorPtr(yt.Type) {
		p.Reportf(be.OpPos, "taxonomy error compared with %s: wrapped errors never match by identity — use errors.As", be.Op)
		return
	}
	if isErrorInterface(xt.Type) && isErrorInterface(yt.Type) {
		p.Reportf(be.OpPos, "error compared with %s: sentinel may arrive wrapped — use errors.Is", be.Op)
	}
}

// taxonomyErrorPtr reports whether t is *T for a named T ending in
// "Error" declared in the module's comm or core package.
func taxonomyErrorPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Name(), "Error") {
		return false
	}
	return taxonomyPkg(obj.Pkg().Path())
}

func taxonomyPkg(path string) bool {
	return strings.HasSuffix(path, "internal/comm") || strings.HasSuffix(path, "internal/core")
}

func isErrorInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// commErrDiscard flags a bare call statement that throws away an error
// returned by a comm/core function.
func commErrDiscard(p *Pass, call *ast.CallExpr, parent ast.Node) {
	fn, last := taxonomyCallee(p, call)
	if fn == nil || !isErrorInterface(last) {
		return
	}
	if fn.Name() == "Close" {
		return // fire-and-forget Close is conventional
	}
	if _, isDefer := parent.(*ast.DeferStmt); isDefer {
		return
	}
	p.Reportf(call.Pos(), "error from %s discarded: a dropped comm/engine failure never reaches the recovery loop — handle it or assign and classify with errors.As", fn.Name())
}

// commErrBlankAssign flags `_ = call()` / `x, _ := call()` where the
// blank slot is the error result of a comm/core call.
func commErrBlankAssign(p *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn, last := taxonomyCallee(p, call)
	if fn == nil || !isErrorInterface(last) || fn.Name() == "Close" {
		return
	}
	// The error is the final result; the final LHS must not be blank.
	lastLHS := as.Lhs[len(as.Lhs)-1]
	if id, ok := lastLHS.(*ast.Ident); ok && id.Name == "_" {
		p.Reportf(as.Pos(), "error from %s assigned to _: a dropped comm/engine failure never reaches the recovery loop — handle it or classify with errors.As", fn.Name())
	}
}

// taxonomyCallee resolves a call to a function or method declared in
// the module's comm or core package and returns it plus the type of
// its final result (types.Typ[types.Invalid] when none).
func taxonomyCallee(p *Pass, call *ast.CallExpr) (*types.Func, types.Type) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, nil
	}
	fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !taxonomyPkg(fn.Pkg().Path()) {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, nil
	}
	return fn, sig.Results().At(sig.Results().Len() - 1).Type()
}
