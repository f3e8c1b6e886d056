package sgvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
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
//     call discarded via a bare call statement or a blank identifier,
//     unless a checked call on the same receiver follows on every path
//     to the exit (it reports the dead connection). Close is
//     fire-and-forget and exempt; deferred and go'd calls are not drops.
//
// Rules 1–2 stay matchers: a comparison is wrong wherever it stands.
// Rule 3 is a flow question, a forward may-analysis on the engine
// (commErrDrops) over each function's CFG, every literal on its own.
//
// Evidence: rule 2 caught the debug server's serve loop comparing
// http.ErrServerClosed by identity, so a wrapped close read as a
// failure; internal/obs's TestServeResultClassifiesWrappedClose pins
// the fix. Rule 3 backs 11 justified suppressions in internal/server,
// each a best-effort send or deadline whose failure later traffic
// reports on some path only — a loop-carried deadline reset, a loop
// that may run zero times, a reply before return, a teardown.
var CommErr = &Analyzer{
	Name: "commerr",
	Doc:  "comm/engine taxonomy errors compared by identity or discarded",
	Run:  runCommErr,
}

func runCommErr(p *Pass) {
	p.inspectFiles(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BinaryExpr:
			commErrCompare(p, s)
		case *ast.FuncDecl, *ast.FuncLit:
			commErrDrops(p, p.Facts.CFG(s))
		}
		return true
	})
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

// pendingDrops is rule 3's dataflow fact: the dropped errors no
// checked call on their receiver has followed yet, keyed by the drop
// statement's position.
type pendingDrops map[token.Pos]selKey

func joinDrops(a, b pendingDrops) pendingDrops {
	out := pendingDrops{}
	maps.Copy(out, a)
	maps.Copy(out, b)
	return out
}

// commErrDrops reports every drop still pending at the function's
// exit — at the drop's own line, so a suppression there keeps working
// — and, in a function that never returns, every drop.
func commErrDrops(p *Pass, g *CFG) {
	info := p.Pkg.Info
	in := solveForward(g, pendingDrops{}, joinDrops, maps.Equal, func(blk *Block, f pendingDrops) pendingDrops {
		out := joinDrops(f, nil)
		for _, n := range blk.Nodes {
			applyDrops(info, n, out)
		}
		return out
	})
	var atExit pendingDrops
	if g.ExitReachable() {
		atExit = in[g.Exit.Index]
	}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			_, fn, _ := droppedCall(info, n)
			if _, pending := atExit[n.Pos()]; fn != nil && (pending || atExit == nil) {
				p.Reportf(n.Pos(), "error from %s discarded: a dropped comm/engine failure never reaches the recovery loop — handle it, classify it with errors.As, or check a later call on the same receiver on every path", fn.Name())
			}
		}
	}
}

// applyDrops is rule 3's transfer for one CFG node: every checked
// call clears its receiver's pending drops, then the node's own drop
// becomes pending. Deferred, go'd and closure calls are not checks.
func applyDrops(info *types.Info, n ast.Node, f pendingDrops) {
	switch s := n.(type) {
	case *RangeHead:
		n = s.Range.X
	case *DeferredCall, *SelectBlocking:
		return
	}
	drop, dropFn, dropKey := droppedCall(info, n)
	ast.Inspect(n, func(m ast.Node) bool {
		switch c := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if _, key := commCall(info, c); c != drop && key != (selKey{}) {
				maps.DeleteFunc(f, func(_ token.Pos, k selKey) bool { return k == key })
			}
		}
		return true
	})
	if dropFn != nil {
		f[n.Pos()] = dropKey
	}
}

// droppedCall resolves the call a statement discards the result of —
// a bare call statement, or an assignment whose final left-hand side
// is blank — with commCall.
func droppedCall(info *types.Info, n ast.Node) (call *ast.CallExpr, fn *types.Func, key selKey) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.AssignStmt:
		if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name == "_" && len(s.Rhs) == 1 {
			call, _ = s.Rhs[0].(*ast.CallExpr)
		}
	}
	if call != nil {
		fn, key = commCall(info, call)
	}
	return call, fn, key
}

// commCall resolves a call to a comm/core function or method, other
// than Close, whose final result is an error (nil otherwise), and keys
// its receiver the way bufown keys field buffers: `cc` by its
// variable, `l.cc` by the (l, cc) pair. The key is zero for a package
// function or a receiver of any other shape, so nothing clears its
// drop.
func commCall(info *types.Info, call *ast.CallExpr) (*types.Func, selKey) {
	fn := calleeObj(info, call)
	if fn == nil || fn.Pkg() == nil || !taxonomyPkg(fn.Pkg().Path()) || fn.Name() == "Close" {
		return nil, selKey{}
	}
	sig := fn.Type().(*types.Signature)
	if res := sig.Results(); res.Len() == 0 || !isErrorInterface(res.At(res.Len()-1).Type()) {
		return nil, selKey{}
	}
	var key selKey
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			key.root = info.Uses[x]
		case *ast.SelectorExpr:
			key, _ = selObjects(info, x)
		}
	}
	return fn, key
}
