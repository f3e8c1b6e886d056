package sgvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// BufOwn polices the zero-copy data plane's ownership contract (the
// aliasing bug class the SendBufs/Release API introduces):
//
//   - comm.SendBufs transfers ownership of the buffers to the transport;
//     after the call the slab may recycle them concurrently, so reading
//     or mutating a handed-off buffer races with the next superstep's
//     payload.
//   - Message.Release returns the payload to the slab; any later use of
//     m.Payload — or of an alias taken from it — reads recycled memory.
//
// The check is flow-sensitive: each function body is lowered to a CFG
// (cfg.go) and a may-poison fact is propagated by the forward solver
// (dataflow.go), so a hand-off poisons the variable along every path
// that passes through it — across if/else merges, around loop back
// edges — and a re-binding on a path un-poisons exactly that path.
// Sibling branches stay clean because no path connects them.
//
// The analysis is interprocedural one package deep: an in-package
// helper gets a bottom-up summary ("releases param #i",
// "returns alias of param #i", depth-bounded per maxSummaryDepth), so
//
//	drain(m)        // helper body calls m.Release()
//	use(m.Payload)  // flagged here
//
// is caught even though this function never spells Release. Aliases of
// the form `p := m.Payload` (directly or through an alias-returning
// helper) are tracked, and field-rooted buffers (SendBufs(..., ctx.bins))
// are tracked per (receiver, field) pair so one receiver's hand-off
// never taints another's. internal/comm and internal/bufpool — the
// layers that implement the contract — are exempt.
//
// Evidence: the contract itself — internal/comm's Message and Buffers
// docs and DESIGN §5.2 name this analyzer as its enforcement, and every
// engine send path hands off slab buffers this way.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc:  "payload or buffer used after Release()/SendBufs ownership hand-off",
	Run:  runBufOwn,
}

func runBufOwn(p *Pass) {
	path := p.Pkg.ImportPath
	if strings.HasSuffix(path, "internal/comm") || strings.HasSuffix(path, "internal/bufpool") {
		return
	}
	a := &bufownAnalysis{pass: p, facts: p.Facts, info: p.Pkg.Info}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkFunc(fd)
		}
	}
}

// poison marks a variable (or field pair) as handed off. pos is the
// hand-off call's position; join keeps the earliest so fixpoints are
// deterministic.
type poison struct {
	kind string // "Release" or "SendBufs"
	pos  token.Pos
}

// selKey identifies a field-rooted buffer `x.f` by the pair of its
// receiver variable and field objects, so poisoning ctx.bins never
// bleeds into other.bins (same field, different receiver) or into an
// unrelated variable that happens to share the field's name.
type selKey struct {
	root, field types.Object
}

// bufFact is the dataflow fact: the set of poisoned variables and
// field pairs plus payload-alias edges, all may-union at joins. The
// zero value is the empty fact (entry state).
type bufFact struct {
	vars  map[types.Object]poison
	sels  map[selKey]poison
	alias map[types.Object]types.Object // p := m.Payload  ⇒  alias[p] = m
}

func (f bufFact) clone() bufFact {
	out := bufFact{vars: map[types.Object]poison{}, sels: map[selKey]poison{}, alias: map[types.Object]types.Object{}}
	maps.Copy(out.vars, f.vars)
	maps.Copy(out.sels, f.sels)
	maps.Copy(out.alias, f.alias)
	return out
}

// clearVar is a re-binding of obj: its own poison, every field pair
// rooted at it, and any alias edge from it are gone.
func (f *bufFact) clearVar(obj types.Object) {
	delete(f.vars, obj)
	delete(f.alias, obj)
	maps.DeleteFunc(f.sels, func(key selKey, _ poison) bool { return key.root == obj })
}

// bufJoin unions poisons (may-analysis; earliest position wins for
// determinism) and unions alias edges, dropping an edge the two paths
// disagree on.
func bufJoin(a, b bufFact) bufFact {
	out := a.clone()
	for obj, pz := range b.vars {
		if cur, ok := out.vars[obj]; !ok || pz.pos < cur.pos {
			out.vars[obj] = pz
		}
	}
	for key, pz := range b.sels {
		if cur, ok := out.sels[key]; !ok || pz.pos < cur.pos {
			out.sels[key] = pz
		}
	}
	for p, m := range b.alias {
		if cur, ok := out.alias[p]; ok && cur != m {
			delete(out.alias, p)
		} else {
			out.alias[p] = m
		}
	}
	return out
}

func bufEqual(a, b bufFact) bool {
	return maps.Equal(a.vars, b.vars) && maps.Equal(a.sels, b.sels) && maps.Equal(a.alias, b.alias)
}

type bufownAnalysis struct {
	pass  *Pass
	facts *Facts
	info  *types.Info
}

func (a *bufownAnalysis) checkFunc(fd *ast.FuncDecl) {
	g := a.facts.CFG(fd)
	in := solveForward(g, bufFact{}, bufJoin, bufEqual, func(blk *Block, f bufFact) bufFact {
		return a.transfer(blk, f, false, 0)
	})
	// Reporting pass: re-apply the transfer with diagnostics on, per
	// block, against the solved in-facts — each use is checked exactly
	// once, against the join over every path that reaches it.
	for _, blk := range g.Blocks {
		a.transfer(blk, in[blk.Index], true, 0)
	}
}

func (a *bufownAnalysis) transfer(blk *Block, f bufFact, report bool, depth int) bufFact {
	cur := f.clone()
	for _, n := range blk.Nodes {
		a.node(n, &cur, report, depth)
	}
	return cur
}

// node checks a CFG node's uses against the incoming fact (so a
// hand-off call never flags its own arguments) and then applies its
// effects.
func (a *bufownAnalysis) node(n ast.Node, f *bufFact, report bool, depth int) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if report {
			a.checkAssign(s, f)
		}
		a.applyEffects(s, f, depth)

	case *ast.DeferStmt:
		// Registration point: the callee and arguments are evaluated
		// here; the call's effect replays at exit (DeferredCall), so
		// `defer m.Release(); use(m.Payload)` stays legal.
		if report {
			a.checkNode(s.Call.Fun, f)
			for _, arg := range s.Call.Args {
				a.checkNode(arg, f)
			}
		}

	case *DeferredCall:
		a.applyCall(s.Defer.Call, f, depth)

	case *RangeHead:
		if report {
			a.checkNode(s.Range.X, f)
		}
		// Key/value are rebound on every iteration, so poison from a
		// previous iteration's body does not survive the back edge:
		// `for _, m := range msgs { use(m.Payload); m.Release() }` is
		// clean, while a poison on the ranged collection itself is not.
		for _, e := range []ast.Expr{s.Range.Key, s.Range.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := identObject(a.info, id); obj != nil {
				f.clearVar(obj)
			}
		}

	case *SelectBlocking:
		// A blocking-select marker; no buffer semantics.

	default:
		if report {
			a.checkNode(n, f)
		}
		a.applyEffects(n, f, depth)
	}
}

// checkAssign applies the assignment use rules: a plain LHS identifier
// — or a one-level field selector, x.f = v — is a re-binding, not a
// use; but writing through an index (buf[0] = x) mutates the
// handed-off buffer and is checked.
func (a *bufownAnalysis) checkAssign(s *ast.AssignStmt, f *bufFact) {
	for _, lhs := range s.Lhs {
		if _, plain := lhs.(*ast.Ident); plain {
			continue
		}
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if _, plain := sel.X.(*ast.Ident); plain {
				continue
			}
		}
		a.checkNode(lhs, f)
	}
	for _, rhs := range s.Rhs {
		if !isTruncation(rhs) {
			a.checkNode(rhs, f)
		}
	}
}

// isTruncation reports whether e is x[:0]. It keeps x's backing array as
// an empty container and reads no element, so `x.f = x.f[:0]` is how a
// buffer list is reused once its buffers were handed off: a re-binding,
// not a use.
func isTruncation(e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.Low != nil || se.Max != nil {
		return false
	}
	lit, ok := se.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// checkNode walks a node flagging uses of poisoned state. Nested
// assignments (inside function literals) get the same LHS treatment as
// top-level ones.
func (a *bufownAnalysis) checkNode(n ast.Node, f *bufFact) {
	ast.Inspect(n, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			a.checkAssign(as, f)
			return false
		}
		a.checkUse(m, f)
		return true
	})
}

func (a *bufownAnalysis) checkUse(n ast.Node, f *bufFact) {
	info := a.info
	switch s := n.(type) {
	case *ast.SelectorExpr:
		if key, ok := selObjects(info, s); ok {
			if _, bad := f.sels[key]; bad {
				a.pass.Reportf(s.Pos(), "field buffer used after SendBufs hand-off: ownership passed to the transport and the slab may recycle it concurrently")
				return
			}
		}
		if s.Sel.Name != "Payload" {
			return
		}
		recv, ok := s.X.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Uses[recv]
		if obj == nil {
			return
		}
		if pz, bad := f.vars[obj]; bad {
			a.pass.Reportf(s.Pos(), "message payload used after %s: the slab may already have recycled it", pz.kind)
		}
	case *ast.Ident:
		obj := info.Uses[s]
		if obj == nil {
			return
		}
		// A Release poisons only the payload (reached via .Payload or an
		// alias), not the message variable itself — so the direct-ident
		// check applies to SendBufs hand-offs alone.
		if pz, bad := f.vars[obj]; bad && pz.kind == "SendBufs" {
			a.pass.Reportf(s.Pos(), "buffer used after SendBufs hand-off: ownership passed to the transport and the slab may recycle it concurrently")
			return
		}
		if msg, ok := f.alias[obj]; ok {
			if pz, bad := f.vars[msg]; bad {
				a.pass.Reportf(s.Pos(), "payload alias used after %s: the slab may already have recycled it", pz.kind)
			}
		}
	}
}

// applyEffects applies every hand-off call and assignment inside the
// node, in syntactic order — sufficient because one CFG node contains
// at most straight-line expression evaluation.
func (a *bufownAnalysis) applyEffects(n ast.Node, f *bufFact, depth int) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.CallExpr:
			a.applyCall(s, f, depth)
		case *ast.AssignStmt:
			a.applyAssign(s, f, depth)
		case *ast.ValueSpec:
			// `var bufs [][]byte` re-declares: in a loop body the same
			// object is re-bound to a fresh value every iteration, so
			// poison must not survive the back edge.
			a.applyValueSpec(s, f)
		case *ast.DeferStmt:
			// A defer nested in a function literal is that literal's
			// business; do not replay its call here.
			return false
		}
		return true
	})
}

func (a *bufownAnalysis) applyCall(call *ast.CallExpr, f *bufFact, depth int) {
	info := a.info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Release":
			recv, ok := sel.X.(*ast.Ident)
			if !ok || !isNamed(info.Types[sel.X].Type, "internal/comm", "Message") {
				return
			}
			if obj := info.Uses[recv]; obj != nil {
				f.vars[obj] = poison{kind: "Release", pos: call.Pos()}
			}
			return
		case "SendBufs":
			if len(call.Args) == 0 {
				return
			}
			last := call.Args[len(call.Args)-1]
			if tv, ok := info.Types[last]; !ok || !isNamed(tv.Type, "internal/comm", "Buffers") {
				return
			}
			for _, x := range handedOff(last) {
				switch x := x.(type) {
				case *ast.Ident:
					if obj := info.Uses[x]; obj != nil {
						f.vars[obj] = poison{kind: "SendBufs", pos: call.Pos()}
					}
				case *ast.SelectorExpr:
					if key, ok := selObjects(info, x); ok {
						f.sels[key] = poison{kind: "SendBufs", pos: call.Pos()}
					}
				}
			}
			return
		}
	}
	// In-package helper: apply its bottom-up summary ("releases param
	// #i") to the matching arguments.
	sum := a.summary(call, depth)
	if sum == nil || len(sum.releases) == 0 {
		return
	}
	args := callArgs(call)
	for idx, kind := range sum.releases {
		if idx >= len(args) {
			continue
		}
		if id := rootIdent(args[idx]); id != nil {
			if obj := info.Uses[id]; obj != nil {
				f.vars[obj] = poison{kind: kind, pos: call.Pos()}
			}
		}
	}
}

// rootIdent strips parens and a leading & — `m`, `(m)`, `&m` all root
// at the identifier m — so helper(&m) poisons the same object
// helper(m) would.
func rootIdent(e ast.Expr) *ast.Ident {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	id, _ := e.(*ast.Ident)
	return id
}

func (a *bufownAnalysis) applyAssign(as *ast.AssignStmt, f *bufFact, depth int) {
	info := a.info
	// Re-bindings first: an LHS write gives the variable (or field
	// pair) a fresh value, clearing old poison and stale aliases.
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := identObject(info, id); obj != nil {
				f.clearVar(obj)
			}
			continue
		}
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if key, kok := selObjects(info, sel); kok {
				delete(f.sels, key)
			}
		}
	}
	// Then new alias edges: p := m.Payload, or p := helper(m) where the
	// helper's summary says its result aliases a parameter's payload.
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, lok := as.Lhs[0].(*ast.Ident)
	if !lok {
		return
	}
	obj := identObject(info, lhs)
	if obj == nil {
		return
	}
	switch rhs := ast.Unparen(as.Rhs[0]).(type) {
	case *ast.SelectorExpr:
		if rhs.Sel.Name != "Payload" {
			return
		}
		if recv, ok := rhs.X.(*ast.Ident); ok && isNamed(info.Types[rhs.X].Type, "internal/comm", "Message") {
			if msg := info.Uses[recv]; msg != nil {
				f.alias[obj] = msg
			}
		}
	case *ast.CallExpr:
		sum := a.summary(rhs, depth)
		if sum == nil || sum.aliasOf < 0 {
			return
		}
		args := callArgs(rhs)
		if sum.aliasOf >= len(args) {
			return
		}
		if id := rootIdent(args[sum.aliasOf]); id != nil {
			if msg := info.Uses[id]; msg != nil {
				f.alias[obj] = msg
			}
		}
	}
}

// applyValueSpec treats a var declaration like the := it is: every
// declared name is freshly bound, and `var p = m.Payload` records the
// same alias edge an assignment would.
func (a *bufownAnalysis) applyValueSpec(vs *ast.ValueSpec, f *bufFact) {
	info := a.info
	for _, name := range vs.Names {
		if obj := info.Defs[name]; obj != nil {
			f.clearVar(obj)
		}
	}
	if len(vs.Names) != 1 || len(vs.Values) != 1 {
		return
	}
	sel, ok := ast.Unparen(vs.Values[0]).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Payload" {
		return
	}
	if recv, rok := sel.X.(*ast.Ident); rok && isNamed(info.Types[sel.X].Type, "internal/comm", "Message") {
		if msg := info.Uses[recv]; msg != nil {
			if obj := info.Defs[vs.Names[0]]; obj != nil {
				f.alias[obj] = msg
			}
		}
	}
}

// bufownSummary is a helper function's ownership effect as seen by its
// callers. Parameter indexes are receiver-first (callArgs order).
type bufownSummary struct {
	releases map[int]string // param index → poison kind at some exit
	aliasOf  int            // result aliases param #i's payload; -1 none
}

// summary resolves the call's callee to an in-package declaration and
// returns its memoized bottom-up summary, or nil (external callee,
// recursion, or depth exhausted — the analysis degrades to
// intraprocedural there).
func (a *bufownAnalysis) summary(call *ast.CallExpr, depth int) *bufownSummary {
	if depth >= maxSummaryDepth {
		return nil
	}
	fn := calleeObj(a.info, call)
	decl := a.facts.DeclOf(fn)
	if decl == nil {
		return nil
	}
	facts := a.facts
	if sum, ok := facts.bufownSums[fn]; ok {
		return sum
	}
	if facts.bufownBusy[fn] {
		return nil
	}
	facts.bufownBusy[fn] = true
	defer delete(facts.bufownBusy, fn)

	g := facts.CFG(decl)
	in := solveForward(g, bufFact{}, bufJoin, bufEqual, func(blk *Block, f bufFact) bufFact {
		return a.transfer(blk, f, false, depth+1)
	})
	var exitFact bufFact
	if g.ExitReachable() {
		exitFact = a.transfer(g.Exit, in[g.Exit.Index], false, depth+1)
	}
	sum := &bufownSummary{releases: map[int]string{}, aliasOf: -1}
	params := funcParams(a.info, decl)
	for i, p := range params {
		if p == nil {
			continue
		}
		if pz, ok := exitFact.vars[p]; ok {
			sum.releases[i] = pz.kind
		}
	}
	sum.aliasOf = returnAliasParam(a.info, decl, params)
	facts.bufownSums[fn] = sum
	return sum
}

// returnAliasParam reports which parameter (receiver-first index) the
// function's result aliases: every alias-shaped return — the parameter
// itself, param.Payload, or a reslice of either — must agree, and the
// function must return exactly one value there. -1 when no return
// aliases a parameter.
func returnAliasParam(info *types.Info, decl *ast.FuncDecl, params []types.Object) int {
	res := -1
	conflict := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if i := aliasedParam(info, ret.Results[0], params); i >= 0 {
			if res >= 0 && res != i {
				conflict = true
			}
			res = i
		}
		return true
	})
	if conflict {
		return -1
	}
	return res
}

func aliasedParam(info *types.Info, e ast.Expr, params []types.Object) int {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return -1
		}
		for i, p := range params {
			if p != nil && p == obj {
				return i
			}
		}
	case *ast.SelectorExpr:
		if x.Sel.Name != "Payload" {
			return -1
		}
		if id, ok := x.X.(*ast.Ident); ok && isNamed(info.Types[x.X].Type, "internal/comm", "Message") {
			obj := info.Uses[id]
			for i, p := range params {
				if p != nil && p == obj {
					return i
				}
			}
		}
	case *ast.SliceExpr:
		return aliasedParam(info, x.X, params)
	}
	return -1
}

// selObjects resolves a one-level field selector `x.f` (x a plain
// identifier) to its (receiver, field) object pair. Method selectors
// and deeper chains are not tracked.
func selObjects(info *types.Info, sel *ast.SelectorExpr) (selKey, bool) {
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return selKey{}, false
	}
	root := info.Uses[recv]
	field := info.Uses[sel.Sel]
	if root == nil || field == nil {
		return selKey{}, false
	}
	if v, isVar := field.(*types.Var); !isVar || !v.IsField() {
		return selKey{}, false
	}
	return selKey{root: root, field: field}, true
}

// handedOff returns the expressions whose buffers a SendBufs argument
// hands off: the argument itself, the operand of a comm.Buffers(x)
// conversion, or the elements of a Buffers{...} literal. The caller
// tracks the plain identifiers and the field selectors (x.f) among them.
// Indexing expressions (bufs[i]) are deliberately not traced to the root
// slice — only the indexed element is transferred.
func handedOff(e ast.Expr) []ast.Expr {
	switch x := e.(type) {
	case *ast.CallExpr: // conversion: comm.Buffers(chunks)
		if len(x.Args) == 1 {
			return handedOff(x.Args[0])
		}
		return nil
	case *ast.CompositeLit: // comm.Buffers{a, ctx.frame}
		return x.Elts
	}
	return []ast.Expr{e}
}

// identObject resolves an identifier whether it defines (:=) or uses
// (=) the variable.
func identObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isNamed reports whether t is (a pointer to) the named type <name>
// declared in the package whose import path ends in pkg.
func isNamed(t types.Type, pkg, name string) bool {
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
	return obj != nil && obj.Name() == name && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkg)
}
