package sgvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FleetState polices the fleet health-state machine: worker
// health travels as the typed server.WorkerState enum, with String()
// existing only for logs and the /statusz JSON rendering. Branching on
// the rendered string — `w.State.String() == "dead"` or comparing a
// state-name literal against some stringly-typed status field —
// re-derives the enum from its display form: it breaks silently when a
// state is renamed or added (the comparison just goes false forever)
// and the compiler can't check exhaustiveness. Compare WorkerState
// values directly (state == server.StateDead).
//
// Rules:
//
//  1. ==/!= where an operand is a WorkerState's String() call → compare
//     the typed enum.
//  2. switch over a WorkerState's String() → switch over the enum.
//  3. ==/!= between a state-name literal ("healthy", "suspect", "dead",
//     "rejoining") and a non-constant string expression that names a
//     state/health/status variable → carry the typed enum instead of a
//     raw string.
//
// Evidence: internal/server/roster.go's name→enum decoding table, the
// one place that may compare state names and carries the suppression
// that says so.
var FleetState = &Analyzer{
	Name: "fleetstate",
	Doc:  "fleet health states compared as raw strings instead of the typed enum",
	Run:  runFleetState,
}

func runFleetState(p *Pass) {
	p.inspectFiles(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BinaryExpr:
			fleetStateCompare(p, s)
		case *ast.SwitchStmt:
			if s.Tag != nil && workerStateString(p, s.Tag) {
				p.Reportf(s.Tag.Pos(), "switch over WorkerState.String(): switch over the typed enum so renames and new states fail the build, not the branch")
			}
		}
		return true
	})
}

func fleetStateCompare(p *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if workerStateString(p, be.X) || workerStateString(p, be.Y) {
		p.Reportf(be.OpPos, "WorkerState compared via String() with %s: compare the typed enum (state %s server.StateHealthy et al.)", be.Op, be.Op)
		return
	}
	if lit, other, ok := stateNameLiteral(p, be.X, be.Y); ok && mentionsStateIdent(other) {
		p.Reportf(be.OpPos, "health state compared as raw string %q: carry the typed server.WorkerState and compare enum values", lit)
	}
}

// workerStateString reports whether e is a String() call on a value of
// the server package's WorkerState type.
func workerStateString(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "String" {
		return false
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isWorkerState(sig.Recv().Type())
}

func isWorkerState(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "WorkerState" &&
		obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/server")
}

// stateNameVocab is the rendered state vocabulary; keep in sync with
// WorkerState.String.
var stateNameVocab = map[string]bool{
	"healthy": true, "suspect": true, "dead": true, "rejoining": true,
}

// stateNameLiteral matches one operand being a constant state-name
// string and returns it with the opposing non-constant operand.
func stateNameLiteral(p *Pass, x, y ast.Expr) (string, ast.Expr, bool) {
	for _, pair := range [2][2]ast.Expr{{x, y}, {y, x}} {
		tv, ok := p.Pkg.Info.Types[pair[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		if !stateNameVocab[constant.StringVal(tv.Value)] {
			continue
		}
		if otv, ok := p.Pkg.Info.Types[pair[1]]; ok && otv.Value == nil && isStringType(otv.Type) {
			return constant.StringVal(tv.Value), pair[1], true
		}
	}
	return "", nil, false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// mentionsStateIdent reports whether the expression names something
// that is plausibly a health state — an identifier or selector whose
// name contains state/health/status. This keeps the literal rule from
// firing on unrelated string comparisons that merely collide with the
// vocabulary (a graph named "dead", say).
func mentionsStateIdent(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		name := strings.ToLower(id.Name)
		for _, hint := range []string{"state", "health", "status"} {
			if strings.Contains(name, hint) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
