package sgvet

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of sgvet's analysis engine: a
// per-function CFG built purely from syntax (go/ast), so it works on
// any parseable Go — including the arbitrary inputs the fuzz target
// feeds it — and never needs type information. The dataflow solver
// (dataflow.go) and the analyzers' transfer functions layer types on
// top.
//
// Blocks are "shallow": a block's Nodes list holds statements and
// expressions in execution order, and nested control flow is never
// inside a node — it gets its own blocks. Three synthetic node kinds
// mark places where the builder had to lower a construct:
//
//   - *RangeHead sits in a range loop's head block and stands for one
//     evaluation of the header: the ranged expression is read and the
//     key/value variables are rebound. Transfer functions handle it
//     without walking the loop body (which has its own blocks).
//   - *DeferredCall replays a registered defer at the function exit in
//     LIFO order. The *ast.DeferStmt itself stays at its registration
//     point, where its arguments are evaluated; the call's effect
//     happens at exit, which is where every return edge lands.
//   - *SelectBlocking sits in the head block of a select with no
//     default clause: the select as a whole blocks there. The per-arm
//     comm operations are the first node of each arm block, and those
//     blocks carry SelectArm so analyzers know the op itself does not
//     block (the head already did).
//
// Function literals are the one kind of nesting a node may contain: a
// closure body is a different function, so it stays whole inside the
// node and analyzers decide whether to descend (bufown does, matching
// the historical block-scoped checker) or build a separate CFG for it.

// Block is one straight-line run of nodes.
type Block struct {
	// Index is the block's position in CFG.Blocks; -1 on a block pruned
	// as unreachable (notably the Exit block of a function that can
	// never return).
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// SelectArm marks a block whose first node is a select clause's
	// comm statement.
	SelectArm bool
}

// CFG is one function's control-flow graph. After construction every
// block in Blocks is reachable from Entry; Exit may have been pruned
// (see ExitReachable).
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// ExitReachable reports whether any path through the function reaches
// the exit — false means the body can never return (an unconditional
// infinite loop), so a helper summary has no exit fact to read.
func (c *CFG) ExitReachable() bool { return c.Exit.Index >= 0 }

// RangeHead stands for one evaluation of a range loop's header.
type RangeHead struct{ Range *ast.RangeStmt }

func (r *RangeHead) Pos() token.Pos { return r.Range.Pos() }
func (r *RangeHead) End() token.Pos { return r.Range.X.End() }

// DeferredCall replays a registered defer at the function exit.
type DeferredCall struct{ Defer *ast.DeferStmt }

func (d *DeferredCall) Pos() token.Pos { return d.Defer.Pos() }
func (d *DeferredCall) End() token.Pos { return d.Defer.End() }

// SelectBlocking marks the head of a select with no default clause —
// the point where the goroutine parks until an arm is ready.
type SelectBlocking struct{ Select *ast.SelectStmt }

func (s *SelectBlocking) Pos() token.Pos { return s.Select.Pos() }
func (s *SelectBlocking) End() token.Pos { return s.Select.End() }

// FuncCFG builds the CFG for a function declaration or literal. A nil
// or absent body yields the trivial entry→exit graph.
func FuncCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	return buildCFG(body)
}

// ctrlTarget is one enclosing breakable construct on the builder's
// stack. contBlk is nil for switch/select (continue passes through to
// the nearest loop).
type ctrlTarget struct {
	label   string
	brkBlk  *Block
	contBlk *Block
}

type cfgBuilder struct {
	cfg     *CFG
	cur     *Block // nil once the current path terminated
	exit    *Block
	targets []ctrlTarget
	labels  map[string]*Block
	label   string // pending label for the next loop/switch/select
	ftBlk   *Block // fallthrough target inside a switch clause
	defers  []*ast.DeferStmt
}

func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*Block{}}
	b.cfg.Entry = b.newBlock()
	b.exit = b.newBlock()
	b.cfg.Exit = b.exit
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	if b.cur != nil {
		b.edge(b.cur, b.exit)
	}
	// Deferred calls replay at exit in LIFO registration order. Every
	// return edge lands on exit, so the replay covers all paths.
	for i := len(b.defers) - 1; i >= 0; i-- {
		b.exit.Nodes = append(b.exit.Nodes, &DeferredCall{Defer: b.defers[i]})
	}
	b.cfg.prune()
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ensure gives the builder a current block: statements that follow a
// terminator (dead code) land in a fresh block that pruning removes
// unless a label makes it reachable.
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Cond != nil {
			b.add(s.Cond)
		}
		head := b.ensure()
		after := b.newBlock()
		then := b.newBlock()
		b.edge(head, then)
		b.cur = then
		if s.Body != nil {
			b.stmtList(s.Body.List)
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.ensure(), head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		bodyBlk := b.newBlock()
		after := b.newBlock()
		b.edge(head, bodyBlk)
		if s.Cond != nil {
			b.edge(head, after)
		}
		cont := head
		if s.Post != nil {
			post := b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			cont = post
		}
		b.targets = append(b.targets, ctrlTarget{label: lbl, brkBlk: after, contBlk: cont})
		b.cur = bodyBlk
		if s.Body != nil {
			b.stmtList(s.Body.List)
		}
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.RangeStmt:
		lbl := b.takeLabel()
		head := b.newBlock()
		b.edge(b.ensure(), head)
		head.Nodes = append(head.Nodes, &RangeHead{Range: s})
		bodyBlk := b.newBlock()
		after := b.newBlock()
		b.edge(head, bodyBlk)
		b.edge(head, after) // the ranged collection may be empty
		b.targets = append(b.targets, ctrlTarget{label: lbl, brkBlk: after, contBlk: head})
		b.cur = bodyBlk
		if s.Body != nil {
			b.stmtList(s.Body.List)
		}
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		lbl := b.takeLabel()
		head := b.ensure()
		after := b.newBlock()
		type arm struct {
			blk    *Block
			clause *ast.CommClause
		}
		var arms []arm
		hasDefault := false
		if s.Body != nil {
			for _, cs := range s.Body.List {
				cc, ok := cs.(*ast.CommClause)
				if !ok {
					continue
				}
				blk := b.newBlock()
				b.edge(head, blk)
				if cc.Comm != nil {
					blk.Nodes = append(blk.Nodes, cc.Comm)
					blk.SelectArm = true
				} else {
					hasDefault = true
				}
				arms = append(arms, arm{blk, cc})
			}
		}
		if !hasDefault {
			head.Nodes = append(head.Nodes, &SelectBlocking{Select: s})
		}
		b.targets = append(b.targets, ctrlTarget{label: lbl, brkBlk: after})
		for _, a := range arms {
			b.cur = a.blk
			b.stmtList(a.clause.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.LabeledStmt:
		blk := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, blk)
		}
		b.cur = blk
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""

	case *ast.BranchStmt:
		cur := b.ensure()
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.edge(cur, t.brkBlk)
			} else {
				b.edge(cur, b.exit)
			}
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.edge(cur, t.contBlk)
			} else {
				b.edge(cur, b.exit)
			}
		case token.GOTO:
			if s.Label != nil {
				b.edge(cur, b.labelBlock(s.Label.Name))
			}
		case token.FALLTHROUGH:
			if b.ftBlk != nil {
				b.edge(cur, b.ftBlk)
			}
		}
		b.cur = nil

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.exit)
		b.cur = nil

	case *ast.DeferStmt:
		// Registration point: arguments are evaluated here; the call's
		// effect replays at exit via DeferredCall.
		b.add(s)
		b.defers = append(b.defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminatingCall(call) {
			b.edge(b.cur, b.exit)
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, Go, Send, IncDec, ...: straight-line.
		b.add(s)
	}
}

// switchStmt lowers expression and type switches: head evaluates
// Init/Tag (case expressions stay in their clause block — a deliberate
// approximation; Go evaluates them in the head), every clause block is
// a successor of the head, fallthrough edges to the next clause's
// block, and a switch without a default can skip straight to the
// follow block.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	lbl := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.ensure()
	after := b.newBlock()
	var clauses []*ast.CaseClause
	if body != nil {
		for _, cs := range body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				clauses = append(clauses, cc)
			}
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.targets = append(b.targets, ctrlTarget{label: lbl, brkBlk: after})
	for i, cc := range clauses {
		b.cur = blocks[i]
		saveFT := b.ftBlk
		if i+1 < len(blocks) {
			b.ftBlk = blocks[i+1]
		} else {
			b.ftBlk = nil
		}
		b.stmtList(cc.Body)
		b.ftBlk = saveFT
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

// findTarget resolves a break (needCont=false) or continue
// (needCont=true) to its enclosing construct. Returns nil on invalid
// code (unknown label, continue outside a loop) — the builder degrades
// to an exit edge rather than failing, so the fuzz target's arbitrary
// inputs never panic.
func (b *cfgBuilder) findTarget(label *ast.Ident, needCont bool) *ctrlTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needCont && t.contBlk == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// isTerminatingCall matches calls that never return, syntactically:
// the builder has no type information, so this is a name-shape check.
// A miss is harmless (an extra exit edge or a spurious follow block);
// the listed names cover the repository's idioms.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln", "cliutil.Fatalf":
			return true
		}
	}
	return false
}

// prune removes blocks unreachable from the entry, re-indexes the
// survivors, and filters edge lists to survivors. Pruned blocks keep
// Index -1 (ExitReachable keys on this).
func (c *CFG) prune() {
	reach := map[*Block]bool{c.Entry: true}
	stack := []*Block{c.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	kept := c.Blocks[:0]
	for _, blk := range c.Blocks {
		if reach[blk] {
			blk.Index = len(kept)
			kept = append(kept, blk)
		} else {
			blk.Index = -1
		}
	}
	c.Blocks = kept
	for _, blk := range c.Blocks {
		succs := blk.Succs[:0]
		for _, s := range blk.Succs {
			if reach[s] {
				succs = append(succs, s)
			}
		}
		blk.Succs = succs
		preds := blk.Preds[:0]
		for _, p := range blk.Preds {
			if reach[p] {
				preds = append(preds, p)
			}
		}
		blk.Preds = preds
	}
}
