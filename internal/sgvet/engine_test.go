package sgvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// ---------------------------------------------------------------------------
// bufown on the engine: flow-sensitive and interprocedural cases the
// historical block-scoped checker could not see. The acceptance bar for
// the engine rewrite is the first two fixtures: a use-after-Release
// flowing through an if/else merge, and one flowing through an
// in-package helper call.
// ---------------------------------------------------------------------------

const bufownFlowFixture = `package fixture

import "repro/internal/comm"

var ep comm.Endpoint

// Release on one branch poisons the merge point: some path through the
// return has handed the payload back.
func branchMergeRelease(cond bool) byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	if cond {
		m.Release()
	}
	return m.Payload[0] // want:bufown
}

// Same shape for a SendBufs hand-off inside a branch.
func branchMergeSend(cond bool, buf []byte) int {
	if cond {
		ep.SendBufs(1, comm.KindUpdate, 1, comm.Buffers{buf})
	}
	return len(buf) // want:bufown
}

// Release in one switch case reaches the shared follow block.
func switchMergeRelease(k int) byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	switch k {
	case 0:
		m.Release()
	case 1:
	}
	return m.Payload[0] // want:bufown
}

// Loop-carried: the use is clean on iteration one, but the back edge
// carries the Release to iteration two.
func loopCarriedRelease(n int) byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	var b byte
	for i := 0; i < n; i++ {
		b += m.Payload[0] // want:bufown
		m.Release()
	}
	return b
}

// Clean counterparts of the three shapes above: releasing on every
// path before any use, re-receiving on the releasing branch, and
// re-binding at the top of each iteration.
func okBothBranchesFresh(cond bool) byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	if cond {
		m.Release()
		m, _ = ep.Recv(0, comm.KindUpdate, 2)
	}
	return m.Payload[0]
}

func okFreshEachIteration(n int) byte {
	var b byte
	for i := 0; i < n; i++ {
		m, _ := ep.Recv(0, comm.KindUpdate, 1)
		b += m.Payload[0]
		m.Release()
	}
	return b
}

func okRangeRebind(msgs []comm.Message) byte {
	var b byte
	for _, m := range msgs {
		b += m.Payload[0]
		m.Release()
	}
	return b
}

func okDeferredRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	defer m.Release()
	return m.Payload[0]
}

// --- interprocedural: the hand-off happens inside a helper ---

func drain(m *comm.Message) {
	m.Release()
}

func drainTwice(m *comm.Message) {
	drain(m)
}

func drainDeferred(m *comm.Message) {
	defer m.Release()
}

func peek(m *comm.Message) byte {
	return m.Payload[0]
}

func payloadOf(m *comm.Message) []byte {
	return m.Payload
}

type sink struct{}

func (s *sink) drainMsg(m *comm.Message) {
	m.Release()
}

func helperRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	drain(&m)
	return m.Payload[0] // want:bufown
}

func helperTransitiveRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	drainTwice(&m)
	return m.Payload[0] // want:bufown
}

func helperDeferRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	drainDeferred(&m)
	return m.Payload[0] // want:bufown
}

func helperMethodRelease(s *sink) byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	s.drainMsg(&m)
	return m.Payload[0] // want:bufown
}

func helperAliasThenRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	p := payloadOf(&m)
	m.Release()
	return p[0] // want:bufown
}

func okHelperOnlyReads() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	b := peek(&m)
	b += m.Payload[0]
	m.Release()
	return b
}

func okHelperReleaseInBranchNotTaken(cond bool) byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	if cond {
		drain(&m)
		return 0
	}
	b := m.Payload[0]
	m.Release()
	return b
}
`

func TestBufOwnFlowFixture(t *testing.T) {
	checkFixture(t, bufownFlowFixture, "", BufOwn)
}

// ---------------------------------------------------------------------------
// CFG builder: structural unit tests + the invariants the fuzz target
// asserts on arbitrary parseable input.
// ---------------------------------------------------------------------------

// funcCFGs parses src and builds a CFG for every function declaration
// and literal, keyed by declaration name (literals get the enclosing
// declaration's name plus a counter).
func funcCFGs(t testing.TB, src string) map[string]*CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := map[string]*CFG{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		out[fd.Name.Name] = FuncCFG(fd)
		lits := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lits++
				out[fmt_lit(fd.Name.Name, lits)] = FuncCFG(lit)
			}
			return true
		})
	}
	return out
}

func fmt_lit(name string, i int) string { return name + "$" + string(rune('0'+i)) }

// checkCFGInvariants asserts the properties every built CFG must have,
// on any input: dense indices matching slice positions, edge lists
// closed over the surviving blocks, symmetric succ/pred edges, and
// every block reachable from the entry (prune's postcondition).
func checkCFGInvariants(t testing.TB, name string, g *CFG) {
	t.Helper()
	if g == nil || g.Entry == nil || g.Exit == nil {
		t.Fatalf("%s: nil CFG or entry/exit", name)
	}
	inGraph := map[*Block]bool{}
	for i, blk := range g.Blocks {
		if blk.Index != i {
			t.Fatalf("%s: block at position %d has Index %d", name, i, blk.Index)
		}
		inGraph[blk] = true
	}
	if !inGraph[g.Entry] {
		t.Fatalf("%s: entry not in Blocks", name)
	}
	if g.ExitReachable() != inGraph[g.Exit] {
		t.Fatalf("%s: ExitReachable=%v but exit-in-Blocks=%v", name, g.ExitReachable(), inGraph[g.Exit])
	}
	count := func(list []*Block, b *Block) int {
		n := 0
		for _, x := range list {
			if x == b {
				n++
			}
		}
		return n
	}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if !inGraph[s] {
				t.Fatalf("%s: block %d has pruned successor", name, blk.Index)
			}
			if count(blk.Succs, s) != count(s.Preds, blk) {
				t.Fatalf("%s: asymmetric edge %d->%d", name, blk.Index, s.Index)
			}
		}
		for _, p := range blk.Preds {
			if !inGraph[p] {
				t.Fatalf("%s: block %d has pruned predecessor", name, blk.Index)
			}
			if count(p.Succs, blk) != count(blk.Preds, p) {
				t.Fatalf("%s: asymmetric edge %d<-%d", name, blk.Index, p.Index)
			}
		}
	}
	// Reachability: prune guarantees every surviving block is reachable
	// from the entry.
	seen := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	if len(seen) != len(g.Blocks) {
		t.Fatalf("%s: %d of %d blocks unreachable from entry", name, len(g.Blocks)-len(seen), len(g.Blocks))
	}
}

const cfgShapesSrc = `package p

func straight() { x := 1; _ = x }

func infinite() {
	for {
	}
}

func condLoop(n int) {
	for i := 0; i < n; i++ {
	}
}

func breakOut() {
	for {
		break
	}
}

func selectBreak(stop chan int) {
	for {
		select {
		case <-stop:
			break
		}
	}
}

func selectReturn(stop chan int) {
	for {
		select {
		case <-stop:
			return
		}
	}
}

func labeledBreak(stop chan int) {
loop:
	for {
		select {
		case <-stop:
			break loop
		}
	}
}

func gotoBack(n int) {
again:
	n--
	if n > 0 {
		goto again
	}
}

func deadAfterReturn() int {
	return 1
	x := 2 // unreachable; pruned
	_ = x
}

func panicOnly() {
	panic("x")
}

func deferred(f func()) {
	defer f()
	defer f()
}

func switches(k int) int {
	switch k {
	case 0:
		return 0
	case 1:
		fallthrough
	default:
		k++
	}
	return k
}
`

func TestCFGShapes(t *testing.T) {
	cfgs := funcCFGs(t, cfgShapesSrc)
	for name, g := range cfgs {
		checkCFGInvariants(t, name, g)
	}
	wantExit := map[string]bool{
		"straight":     true,
		"infinite":     false,
		"condLoop":     true,
		"breakOut":     true,
		"selectBreak":  false, // break exits the select, not the for
		"selectReturn": true,
		"labeledBreak": true,
		"gotoBack":     true,
		"panicOnly":    true, // a panic edge terminates the path at exit
		"switches":     true,
	}
	for name, want := range wantExit {
		g, ok := cfgs[name]
		if !ok {
			t.Fatalf("no CFG built for %s", name)
		}
		if got := g.ExitReachable(); got != want {
			t.Errorf("%s: ExitReachable = %v, want %v", name, got, want)
		}
	}

	// Deferred calls replay at the exit in LIFO order.
	exit := cfgs["deferred"].Exit
	var replays int
	for _, n := range exit.Nodes {
		if _, ok := n.(*DeferredCall); ok {
			replays++
		}
	}
	if replays != 2 {
		t.Errorf("deferred: %d DeferredCall replays at exit, want 2", replays)
	}

	// Dead code after a return is pruned.
	dead := cfgs["deadAfterReturn"]
	for _, blk := range dead.Blocks {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				t.Errorf("deadAfterReturn: unreachable assignment %v survived pruning", as.Tok)
			}
		}
	}
}

func TestCFGSelectLowering(t *testing.T) {
	cfgs := funcCFGs(t, `package p

func blocking(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case w := <-b:
		return w
	}
}

func nonBlocking(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}
`)
	countMarkers := func(g *CFG) (heads, arms int) {
		for _, blk := range g.Blocks {
			if blk.SelectArm {
				arms++
			}
			for _, n := range blk.Nodes {
				if _, ok := n.(*SelectBlocking); ok {
					heads++
				}
			}
		}
		return
	}
	if heads, arms := countMarkers(cfgs["blocking"]); heads != 1 || arms != 2 {
		t.Errorf("blocking select: %d SelectBlocking markers, %d arm blocks; want 1, 2", heads, arms)
	}
	if heads, arms := countMarkers(cfgs["nonBlocking"]); heads != 0 || arms != 1 {
		t.Errorf("default select: %d SelectBlocking markers, %d arm blocks; want 0, 1", heads, arms)
	}
}

// FuzzCFGBuild asserts the builder's contract on arbitrary parseable
// Go: it never panics, and the graph it produces is connected and
// structurally consistent (checkCFGInvariants). Invalid-but-parseable
// control flow — breaks without loops, gotos to missing labels — must
// degrade, not crash.
func FuzzCFGBuild(f *testing.F) {
	f.Add(cfgShapesSrc)
	f.Add(`package p
func f(xs []int) int {
	s := 0
	for i, x := range xs {
		if x < 0 {
			continue
		}
		s += i * x
	}
	return s
}`)
	f.Add(`package p
func f() {
	break
	continue
	goto nowhere
	fallthrough
}`)
	f.Add(`package p
func f(c chan int) {
	defer close(c)
	go func() {
		for {
			select {}
		}
	}()
}`)
	f.Add(`package p
func f(k int) {
	switch {
	case k > 0:
		goto done
	}
done:
}`)
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				checkCFGInvariants(t, "fuzz", FuncCFG(fn))
			case *ast.FuncLit:
				checkCFGInvariants(t, "fuzz", FuncCFG(fn))
			}
			return true
		})
	})
}
