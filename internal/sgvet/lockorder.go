package sgvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder tracks sync.Mutex/RWMutex acquire–release per control-flow
// path on the engine (cfg.go + dataflow.go) and convicts the three
// deadlock shapes a serving fleet actually hits:
//
//   - lock-order inversion: somewhere in the package mutex A is
//     acquired while B is held, and somewhere else B while A is held.
//     Two goroutines interleaving those paths deadlock. Order edges
//     are type-level — (named type, field) for field mutexes — because
//     lock ordering is a discipline of the code, not of one instance.
//   - self-deadlock: re-acquiring a mutex that is must-held on the
//     same path (Go mutexes are not reentrant), directly or by calling
//     an in-package helper whose summary says it acquires it.
//   - lock held across a blocking point: a channel send/receive
//     outside a default-armed select, a select with no default, or a
//     blocking internal/comm call (SendBufs/Recv/Expect/Dial...)
//     while any mutex is may-held. A stalled peer then wedges every
//     contender of the mutex.
//
// Facts carry a may-held set (union at joins — feeding the
// held-across-blocking check, where any path holding is real) and a
// must-held set (intersection at joins — feeding the self-deadlock and
// order-edge checks, which should fire only when the hold is certain).
// `defer mu.Unlock()` releases at the function exit like every defer,
// so the lock is correctly held through the body. In-package helpers
// get bottom-up summaries: the set of type-level locks they (or their
// callees, depth-bounded) acquire, and whether they block.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-order inversion, self-deadlock, or mutex held across a blocking operation",
	Run:  runLockOrder,
}

func runLockOrder(p *Pass) {
	a := &lockAnalysis{
		pass:  p,
		facts: p.Facts,
		info:  p.Pkg.Info,
		edges: map[[2]string][]token.Pos{},
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkFunc(fd)
			// Function literals are separate functions: their lock state
			// does not merge into the enclosing flow, so each gets its
			// own CFG and solve.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.checkFunc(lit)
				}
				return true
			})
		}
	}
	a.reportInversions()
}

// lockKey is instance-level identity: the leftmost receiver variable
// plus the mutex field (nil field for a plain mutex variable). Two
// receivers' mu fields are different locks; two mentions of the same
// variable are the same lock.
type lockKey struct {
	root  types.Object
	field types.Object
}

// heldInfo describes one held lock: its type-level name (order edges
// and messages) and the acquire site.
type heldInfo struct {
	name  string
	pos   token.Pos
	write bool
}

// lockFact is the dataflow fact: may-held (union join) and must-held
// (intersection join) lock sets.
type lockFact struct {
	may  map[lockKey]heldInfo
	must map[lockKey]heldInfo
}

func (f lockFact) clone() lockFact {
	out := lockFact{
		may:  make(map[lockKey]heldInfo, len(f.may)),
		must: make(map[lockKey]heldInfo, len(f.must)),
	}
	for k, v := range f.may {
		out.may[k] = v
	}
	for k, v := range f.must {
		out.must[k] = v
	}
	return out
}

func lockJoin(a, b lockFact) lockFact {
	out := lockFact{
		may:  make(map[lockKey]heldInfo, len(a.may)+len(b.may)),
		must: make(map[lockKey]heldInfo, len(a.must)),
	}
	for k, v := range a.may {
		out.may[k] = v
	}
	for k, v := range b.may {
		if cur, ok := out.may[k]; !ok || v.pos < cur.pos {
			out.may[k] = v
		}
	}
	for k, v := range a.must {
		if w, ok := b.must[k]; ok {
			if w.pos < v.pos {
				v = w
			}
			out.must[k] = v
		}
	}
	return out
}

func lockEqual(a, b lockFact) bool {
	if len(a.may) != len(b.may) || len(a.must) != len(b.must) {
		return false
	}
	for k, v := range a.may {
		if w, ok := b.may[k]; !ok || w != v {
			return false
		}
	}
	for k, v := range a.must {
		if w, ok := b.must[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (f *lockFact) acquire(k lockKey, h heldInfo) {
	f.may[k] = h
	f.must[k] = h
}

func (f *lockFact) release(k lockKey) {
	delete(f.may, k)
	delete(f.must, k)
}

type lockAnalysis struct {
	pass  *Pass
	facts *Facts
	info  *types.Info
	// edges accumulates type-level order edges across the whole package
	// during report passes: edges[{A,B}] = sites where B was acquired
	// while A was held.
	edges map[[2]string][]token.Pos
}

func (a *lockAnalysis) checkFunc(fn ast.Node) {
	g := a.facts.CFG(fn)
	in := solveForward(g, lockFact{}, lockJoin, lockEqual, func(blk *Block, f lockFact) lockFact {
		return a.transfer(blk, f, false, 0)
	})
	for _, blk := range g.Blocks {
		a.transfer(blk, in[blk.Index], true, 0)
	}
}

func (a *lockAnalysis) transfer(blk *Block, f lockFact, report bool, depth int) lockFact {
	cur := f.clone()
	for i, n := range blk.Nodes {
		a.node(blk, i, n, &cur, report, depth)
	}
	return cur
}

func (a *lockAnalysis) node(blk *Block, idx int, n ast.Node, f *lockFact, report bool, depth int) {
	switch s := n.(type) {
	case *ast.GoStmt:
		// The spawned call runs on another goroutine: its locking and
		// blocking are its own flow (runLockOrder analyzes the body
		// separately when it is in-package), not the spawner's.
		return
	case *ast.DeferStmt:
		// Effect replays at exit via DeferredCall.
		return
	case *DeferredCall:
		for _, mc := range mutexCallsIn(a.info, s.Defer.Call) {
			a.applyMutex(mc, f, report)
		}
		return
	case *RangeHead:
		return
	case *SelectBlocking:
		if report {
			a.reportBlocked(f, s.Pos(), "a select with no default arm")
		}
		return
	}

	// Blocking points are checked against the incoming held set: the
	// goroutine parks at the op while still holding.
	if report {
		if desc, pos, ok := a.blockingOp(blk, idx, n); ok {
			a.reportBlocked(f, pos, desc)
		}
	}
	for _, mc := range mutexCallsIn(a.info, n) {
		a.applyMutex(mc, f, report)
	}
	// In-package helpers: their summarized acquisitions extend the
	// order relation (and can self-deadlock on an already-held lock);
	// their blocking points count as ours.
	for _, call := range callsIn(n) {
		sum := a.summary(call, depth)
		if sum == nil || !report {
			continue
		}
		callee := calleeObj(a.info, call)
		for _, acq := range sortedAcquires(sum.acquires) {
			for _, h := range sortedHeld(f.must) {
				if h.name == acq {
					a.pass.Reportf(call.Pos(), "call to %s acquires mutex %s, which is already held here (acquired at %s): self-deadlock", callee.Name(), acq, a.position(h.pos))
				} else {
					a.addEdge(h.name, acq, call.Pos())
				}
			}
		}
		if sum.blocksOn != "" && len(f.may) > 0 {
			a.reportBlocked(f, call.Pos(), fmt.Sprintf("a call to %s, which blocks on %s", callee.Name(), sum.blocksOn))
		}
	}
}

// mutexCall is one Lock/RLock/Unlock/RUnlock on a sync mutex.
type mutexCall struct {
	key     lockKey
	name    string
	pos     token.Pos
	acquire bool
	write   bool
}

func (a *lockAnalysis) applyMutex(mc mutexCall, f *lockFact, report bool) {
	if !mc.acquire {
		f.release(mc.key)
		return
	}
	if report {
		// Re-acquiring a held instance: Go mutexes are not reentrant.
		// RLock-after-RLock is tolerated (read locks nest, modulo writer
		// starvation); any pairing involving a write lock is a deadlock.
		if prev, ok := f.must[mc.key]; ok && (prev.write || mc.write) {
			a.pass.Reportf(mc.pos, "mutex %s acquired again while already held on this path (acquired at %s): self-deadlock", mc.name, a.position(prev.pos))
		}
		for _, h := range sortedHeld(f.must) {
			if h.name != mc.name {
				a.addEdge(h.name, mc.name, mc.pos)
			}
		}
	}
	f.acquire(mc.key, heldInfo{name: mc.name, pos: mc.pos, write: mc.write})
}

func (a *lockAnalysis) reportBlocked(f *lockFact, pos token.Pos, desc string) {
	held := sortedHeld(f.may)
	if len(held) == 0 {
		return
	}
	a.pass.Reportf(pos, "mutex %s held across %s: a stall here wedges every contender of the mutex", held[0].name, desc)
}

func (a *lockAnalysis) addEdge(from, to string, pos token.Pos) {
	key := [2]string{from, to}
	a.edges[key] = append(a.edges[key], pos)
}

// reportInversions scans the package-wide order relation for two-lock
// cycles: an A→B edge plus a B→A edge means two goroutines can
// deadlock by interleaving. One diagnostic per direction, each naming
// the opposite site.
func (a *lockAnalysis) reportInversions() {
	keys := make([][2]string, 0, len(a.edges))
	for k := range a.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if k[0] >= k[1] {
			continue // report each unordered pair once, from the lexically smaller direction
		}
		rev := [2]string{k[1], k[0]}
		revSites, ok := a.edges[rev]
		if !ok {
			continue
		}
		sites := a.edges[k]
		sortPos(sites)
		sortPos(revSites)
		a.pass.Reportf(sites[0], "lock order inversion: %s acquired while %s is held, but %s acquires them in the opposite order — two goroutines interleaving these paths deadlock", k[1], k[0], a.position(revSites[0]))
		a.pass.Reportf(revSites[0], "lock order inversion: %s acquired while %s is held, but %s acquires them in the opposite order — two goroutines interleaving these paths deadlock", rev[1], rev[0], a.position(sites[0]))
	}
}

func sortPos(ps []token.Pos) {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
}

func (a *lockAnalysis) position(pos token.Pos) string {
	p := a.pass.Pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

func sortedHeld(m map[lockKey]heldInfo) []heldInfo {
	out := make([]heldInfo, 0, len(m))
	for _, h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

func sortedAcquires(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// blockingOp classifies a node as a parking point: a channel send or
// receive outside a select arm (a select arm's comm op fires only once
// the select chose it — the head's SelectBlocking already covers the
// wait), or a blocking internal/comm call.
func (a *lockAnalysis) blockingOp(blk *Block, idx int, n ast.Node) (string, token.Pos, bool) {
	inArm := blk.SelectArm && idx == 0
	if s, ok := n.(*ast.SendStmt); ok && !inArm {
		return "a channel send", s.Arrow, true
	}
	var desc string
	var pos token.Pos
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inArm {
				desc, pos, found = "a channel receive", x.Pos(), true
				return false
			}
		case *ast.CallExpr:
			if name, ok := blockingCommCall(a.info, x); ok {
				desc, pos, found = fmt.Sprintf("a blocking comm call (%s)", name), x.Pos(), true
				return false
			}
		}
		return true
	})
	return desc, pos, found
}

// blockingCommNames is internal/comm's parking API: the data plane's
// SendBufs/Recv/RecvTimeout, the acknowledged control protocol
// (CtrlConn's Send/Recv/Expect and blobs), and dials.
var blockingCommNames = map[string]bool{
	"SendBufs": true, "Recv": true, "RecvTimeout": true,
	"Send": true, "Expect": true, "SendBlob": true, "RecvBlob": true,
	"SendBlobChunked": true, "RecvBlobChunked": true,
	"DialCtrl": true,
}

func blockingCommCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeObj(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/comm") {
		return "", false
	}
	if !blockingCommNames[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

// mutexCallsIn finds sync.Mutex / sync.RWMutex Lock/RLock/Unlock/RUnlock
// calls in a node, in syntactic order, skipping function literals
// (their locks are their own flow).
func mutexCallsIn(info *types.Info, n ast.Node) []mutexCall {
	var out []mutexCall
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var acquire, write bool
		switch sel.Sel.Name {
		case "Lock":
			acquire, write = true, true
		case "RLock":
			acquire, write = true, false
		case "Unlock":
			acquire, write = false, true
		case "RUnlock":
			acquire, write = false, false
		default:
			return true
		}
		if !isSyncMutex(info.Types[sel.X].Type) {
			return true
		}
		key, name, ok := lockIdentity(info, sel.X)
		if !ok {
			return true
		}
		out = append(out, mutexCall{key: key, name: name, pos: call.Pos(), acquire: acquire, write: write})
		return true
	})
	return out
}

// callsIn collects the calls in a node, skipping function literals.
func callsIn(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			out = append(out, call)
		}
		return true
	})
	return out
}

// lockIdentity resolves the mutex expression to (instance key,
// type-level name): `mu` → (var mu, "mu"); `p.mu` → ((p, field mu),
// "Pool.mu"); deeper chains key on the leftmost identifier.
func lockIdentity(info *types.Info, e ast.Expr) (lockKey, string, bool) {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return lockKey{}, "", false
		}
		return lockKey{root: obj}, obj.Name(), true
	case *ast.SelectorExpr:
		field := info.Uses[x.Sel]
		fv, isVar := field.(*types.Var)
		if field == nil || !isVar || !fv.IsField() {
			return lockKey{}, "", false
		}
		root := leftmostIdentObj(info, x.X)
		if root == nil {
			return lockKey{}, "", false
		}
		name := field.Name()
		if owner := namedOf(info.Types[x.X].Type); owner != "" {
			name = owner + "." + field.Name()
		}
		return lockKey{root: root, field: field}, name, true
	}
	return lockKey{}, "", false
}

func leftmostIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func namedOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj() != nil {
		return named.Obj().Name()
	}
	return ""
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockSummary is a helper's effect on its caller's lock state: the
// type-level locks it (or its callees, depth-bounded) acquires, and
// the first blocking point inside it, if any.
type lockSummary struct {
	acquires map[string]bool
	blocksOn string
}

func (a *lockAnalysis) summary(call *ast.CallExpr, depth int) *lockSummary {
	if depth >= maxSummaryDepth {
		return nil
	}
	fn := calleeObj(a.info, call)
	decl := a.facts.DeclOf(fn)
	if decl == nil {
		return nil
	}
	facts := a.facts
	if sum, ok := facts.lockSums[fn]; ok {
		return sum
	}
	if facts.lockBusy[fn] {
		return nil
	}
	facts.lockBusy[fn] = true
	defer delete(facts.lockBusy, fn)

	sum := &lockSummary{acquires: map[string]bool{}}
	g := facts.CFG(decl)
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			switch s := n.(type) {
			case *ast.GoStmt, *ast.DeferStmt, *RangeHead:
				continue
			case *DeferredCall:
				continue
			case *SelectBlocking:
				if sum.blocksOn == "" {
					sum.blocksOn = "a select with no default arm"
				}
				continue
			default:
				_ = s
			}
			for _, mc := range mutexCallsIn(a.info, n) {
				if mc.acquire {
					sum.acquires[mc.name] = true
				}
			}
			if desc, _, ok := a.blockingOp(blk, i, n); ok && sum.blocksOn == "" {
				sum.blocksOn = desc
			}
			for _, sub := range callsIn(n) {
				ss := a.summary(sub, depth+1)
				if ss == nil {
					continue
				}
				for name := range ss.acquires {
					sum.acquires[name] = true
				}
				if sum.blocksOn == "" && ss.blocksOn != "" {
					sum.blocksOn = ss.blocksOn
				}
			}
		}
	}
	facts.lockSums[fn] = sum
	return sum
}
