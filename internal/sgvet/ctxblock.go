package sgvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// CtxBlock guards the query service's graceful-drain contract:
// every blocking channel operation on a serving path must carry an
// escape hatch, or one wedged peer pins a handler goroutine forever —
// admission slots leak, drain never completes, and shutdown hangs.
//
// Scope: packages whose import path ends in internal/server (the
// daemon, scheduler, pool, and admission layers).
//
// Flagged:
//   - a send or receive outside any select statement;
//   - a select statement none of whose arms is an escape: a default
//     clause, a receive from a Done()/deadline channel (ctx.Done(),
//     time.After, a Timer/Ticker .C), or a receive from a channel whose
//     name signals lifecycle (done, stop, quit, closed, shutdown).
//
// Not flagged: range-over-channel consumers (terminated by close) and
// close() itself. Deliberately-blocking ops — e.g. returning an
// admission token to a buffered channel that by construction has room —
// are annotated with //sgvet:ignore ctxblock and a proof of why they
// cannot block.
//
// Evidence: the two such proofs in internal/server/admission.go, where
// a request returns the admission token it took; every other channel
// op on the serving path carries its escape arm.
var CtxBlock = &Analyzer{
	Name: "ctxblock",
	Doc:  "channel op on a serving path without a shutdown/deadline escape arm",
	Run:  runCtxBlock,
}

var lifecycleChanRe = regexp.MustCompile(`(?i)done|stop|quit|clos|shut|cancel`)

func runCtxBlock(p *Pass) {
	if !strings.HasSuffix(p.Pkg.ImportPath, "internal/server") {
		return
	}
	for _, f := range p.Pkg.Files {
		// First pass: record every channel op that is the comm clause
		// of a select — those are judged per-select, not as bare ops.
		inSelect := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, c := range sel.Body.List {
				clause := c.(*ast.CommClause)
				if clause.Comm == nil {
					continue
				}
				markCommOps(clause.Comm, inSelect)
			}
			if !hasEscapeArm(sel) {
				p.Reportf(sel.Pos(), "select has no escape arm: add a default, ctx.Done(), deadline, or shutdown-channel case so a wedged peer cannot pin this goroutine")
			}
			return true
		})
		// Second pass: bare ops.
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.RangeStmt:
				// Range-over-channel is terminated by close; skip the X
				// expression but keep walking the body.
				if isChanRecv(p, s.X) {
					ast.Inspect(s.Body, func(m ast.Node) bool { return reportBareOp(p, m, inSelect) })
					return false
				}
			default:
				return reportBareOp(p, n, inSelect)
			}
			return true
		})
	}
}

func reportBareOp(p *Pass, n ast.Node, inSelect map[ast.Node]bool) bool {
	switch s := n.(type) {
	case *ast.SendStmt:
		if !inSelect[s] {
			p.Reportf(s.Arrow, "blocking send outside select: wrap in a select with a ctx.Done()/shutdown arm (or //sgvet:ignore ctxblock with a proof it cannot block)")
		}
	case *ast.UnaryExpr:
		if s.Op == token.ARROW && !inSelect[s] && !isEscapeChan(s.X) {
			p.Reportf(s.OpPos, "blocking receive outside select: wrap in a select with a ctx.Done()/shutdown arm (or //sgvet:ignore ctxblock with a proof it cannot block)")
		}
	}
	return true
}

// markCommOps records the channel operations that form a select comm
// clause: `case ch <- v:`, `case <-ch:`, `case v := <-ch:`.
func markCommOps(comm ast.Stmt, set map[ast.Node]bool) {
	set[comm] = true
	switch s := comm.(type) {
	case *ast.ExprStmt:
		set[s.X] = true
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			set[r] = true
		}
	}
}

// hasEscapeArm reports whether any arm of the select lets the goroutine
// escape a wedged peer.
func hasEscapeArm(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		clause := c.(*ast.CommClause)
		if clause.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch s := clause.Comm.(type) {
		case *ast.ExprStmt:
			recv = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv = s.Rhs[0]
			}
		}
		ue, ok := recv.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		if isEscapeChan(ue.X) {
			return true
		}
	}
	return false
}

// isEscapeChan recognizes channel expressions that fire on shutdown or
// deadline: ctx.Done(), time.After(...), timer.C, and lifecycle-named
// channels (d.done, s.stopCh, ...).
func isEscapeChan(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" && (sel.Sel.Name == "After" || sel.Sel.Name == "Tick") {
				return true
			}
		}
	case *ast.SelectorExpr:
		if x.Sel.Name == "C" {
			return true // timer/ticker channel
		}
		return lifecycleChanRe.MatchString(x.Sel.Name)
	case *ast.Ident:
		return lifecycleChanRe.MatchString(x.Name)
	}
	return false
}

// isChanRecv reports whether ranging over e consumes a channel.
func isChanRecv(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
