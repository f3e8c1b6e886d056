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
// The check scans each function's CFG (every function literal on its
// own), where the builder already says where a goroutine parks.
// Flagged:
//   - a SelectBlocking head (a select with no default) none of whose
//     arms is an escape: a receive from a Done()/deadline channel
//     (ctx.Done(), time.After, a Timer/Ticker .C) or from a channel
//     whose name signals lifecycle (done, stop, quit, closed, shutdown);
//   - any other send, and any other receive not from an escape channel.
//
// Not flagged: the op leading a SelectArm block (its head parked), a
// RangeHead over a channel (terminated by close), and close() itself.
// Deliberately-blocking ops — e.g. returning an admission token to a
// buffered channel that by construction has room — are annotated with
// //sgvet:ignore ctxblock and a proof of why they cannot block.
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
	p.inspectFiles(func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			ctxBlockFunc(p, p.Facts.CFG(n))
		}
		return true
	})
}

func ctxBlockFunc(p *Pass, g *CFG) {
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			switch s := n.(type) {
			case *SelectBlocking:
				if !hasEscapeArm(s.Select) {
					p.Reportf(s.Pos(), "select has no escape arm: add a default, ctx.Done(), deadline, or shutdown-channel case so a wedged peer cannot pin this goroutine")
				}
				continue
			case *RangeHead:
				if isChanRecv(p, s.Range.X) {
					continue
				}
				n = s.Range.X
			case *DeferredCall:
				continue // scanned at its registration
			}
			var parked ast.Node // an arm's own op: the head parked for it
			if i == 0 && blk.SelectArm {
				parked = commOp(n.(ast.Stmt))
			}
			reportBareOps(p, n, parked)
		}
	}
}

// reportBareOps flags the channel ops one CFG node evaluates, except
// parked. Function literals are left to their own CFG.
func reportBareOps(p *Pass, n, parked ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if s != parked {
				p.Reportf(s.Arrow, "blocking send outside select: wrap in a select with a ctx.Done()/shutdown arm (or //sgvet:ignore ctxblock with a proof it cannot block)")
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && s != parked && !isEscapeChan(s.X) {
				p.Reportf(s.OpPos, "blocking receive outside select: wrap in a select with a ctx.Done()/shutdown arm (or //sgvet:ignore ctxblock with a proof it cannot block)")
			}
		}
		return true
	})
}

// commOp returns the channel operation of a select clause's comm
// statement: `case ch <- v:`, `case <-ch:`, `case v := <-ch:`.
func commOp(comm ast.Stmt) ast.Node {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		return s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			return s.Rhs[0]
		}
	}
	return comm
}

// hasEscapeArm reports whether any arm of the select lets the goroutine
// escape a wedged peer.
func hasEscapeArm(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		clause := c.(*ast.CommClause)
		if clause.Comm == nil {
			return true // default
		}
		ue, ok := commOp(clause.Comm).(*ast.UnaryExpr)
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
