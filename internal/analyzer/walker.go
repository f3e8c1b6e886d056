package analyzer

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// walker is the §4 analysis over one set of type-checked files.
type walker struct {
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	// helperDepth is how many helper hops interBreaks follows.
	helperDepth int
	// local marks the lines carrying an //sgc:local directive.
	local map[fileLine]bool
	// helpers memoizes helperExits. An entry is stored empty while its
	// helper is being analyzed, which cuts recursion cycles.
	helpers map[helperKey][]InterBreak
}

type fileLine struct {
	file string
	line int
}

type helperKey struct {
	fn    types.Object
	param int
}

// newWalker also collects the //sgc:local directives. The directive
// declares an early exit machine-local — intentionally not a loop-carried
// dependency: the analysis counts it apart and the instrumenter leaves it
// alone. It applies to an exit on its own line or the line below.
func newWalker(fset *token.FileSet, files []*ast.File, info *types.Info, helperDepth int) *walker {
	w := &walker{
		fset: fset, files: files, info: info, helperDepth: helperDepth,
		local:   map[fileLine]bool{},
		helpers: map[helperKey][]InterBreak{},
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				if strings.HasPrefix(strings.TrimSpace(text), "sgc:local") {
					pos := fset.Position(c.Pos())
					w.local[fileLine{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return w
}

func (w *walker) isLocal(pos token.Pos) bool {
	p := w.fset.Position(pos)
	return w.local[fileLine{p.Filename, p.Line}] || w.local[fileLine{p.Filename, p.Line - 1}]
}

// funcs analyzes every function declaration and literal of the files.
func (w *walker) funcs() []FuncReport {
	var out []FuncReport
	for _, file := range w.files {
		ast.Inspect(file, func(n ast.Node) bool {
			var fr FuncReport
			var ok bool
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					fr, ok = w.analyzeFunc(fn.Name.Name, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				fr, ok = w.analyzeFunc("<anonymous>", fn.Type, fn.Body)
			}
			if ok {
				out = append(out, fr)
			}
			return true
		})
	}
	return out
}

// analyzeFunc recognizes a dense-signal UDF and builds its record.
func (w *walker) analyzeFunc(name string, typ *ast.FuncType, body *ast.BlockStmt) (FuncReport, bool) {
	ctx, nbr, msg := w.signalParams(typ)
	if ctx == nil || nbr == nil {
		return FuncReport{}, false
	}
	pos := w.fset.Position(typ.Pos())
	fr := FuncReport{
		Name:          name,
		File:          filepath.Base(pos.Filename),
		Path:          pos.Filename,
		Line:          pos.Line,
		CtxParam:      ctx.Name(),
		NeighborParam: nbr.Name(),
	}
	if msg != nil {
		fr.MsgType = typeString(msg)
	}
	ctxAliases := &ctxRef{w.aliasSet(body, ctx), ctx.Name()}
	nbrAliases := w.aliasSet(body, nbr)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		switch {
		case !ok:
		case w.isCtxCall(call, ctxAliases, "EmitDep"):
			fr.EmitsDep = true
		case len(call.Args) > 0 && (w.isCtxCall(call, ctxAliases, "DepFloat") || w.isCtxCall(call, ctxAliases, "SetDepFloat")):
			if v := w.info.Types[call.Args[0]].Value; v != nil && v.Kind() == constant.Int {
				lane, _ := constant.Int64Val(v)
				fr.Lanes = max(fr.Lanes, int(lane)+1)
			}
		}
		return true
	})

	covered, uncovered := 0, 0
	for _, loop := range w.neighborLoops(body, nbrAliases) {
		lr := LoopReport{
			Line:  w.fset.Position(loop.stmt.Pos()).Line,
			body:  loop.body,
			edged: len(loop.body.List) > 0 && w.isCtxCall(loop.body.List[0], ctxAliases, "Edge"),
		}
		for _, ex := range loopExits(loop) {
			if w.isLocal(ex.stmt.Pos()) {
				lr.LocalExits++
				continue
			}
			_, isReturn := ex.stmt.(*ast.ReturnStmt)
			if isReturn {
				lr.Returns++
			} else {
				lr.Breaks++
			}
			if w.covered(ex, ctxAliases) {
				covered++
				continue
			}
			uncovered++
			line := w.fset.Position(ex.stmt.Pos()).Line
			lr.UncoveredExits = append(lr.UncoveredExits, line)
			if isReturn {
				lr.UncoveredReturns = append(lr.UncoveredReturns, line)
			} else {
				lr.patch = append(lr.patch, ex)
			}
		}
		lr.Carried = w.carriedVars(loop, body)
		fr.Loops = append(fr.Loops, lr)
	}

	// Interprocedural: calls that hand the neighbor slice to a helper
	// whose traversal exits early.
	fr.InterBreaks = w.interBreaks(body, nbrAliases, 1)
	for _, ib := range fr.InterBreaks {
		if ib.Covered {
			covered++
		} else {
			uncovered++
		}
	}

	fr.LoopCarried = covered+uncovered > 0
	switch {
	case !fr.LoopCarried:
		fr.Instrumented = InstrumentedNotNeeded
	case uncovered == 0:
		fr.Instrumented = InstrumentedYes
	case covered > 0:
		fr.Instrumented = InstrumentedPartial
	default:
		fr.Instrumented = InstrumentedNo
	}
	return fr, true
}

// signalParams returns the parameters filling the two signal-UDF roles —
// the first *core.DenseCtx[M] (with M) and the first []graph.VertexID —
// or nil for a function that is not a dense signal. A blank parameter
// fills no role: the body cannot name it.
func (w *walker) signalParams(typ *ast.FuncType) (ctx, nbr *types.Var, msg types.Type) {
	if typ.Params == nil {
		return nil, nil, nil
	}
	for _, field := range typ.Params.List {
		for _, name := range field.Names {
			obj, ok := w.info.Defs[name].(*types.Var)
			if !ok || name.Name == "_" {
				continue
			}
			if m, ok := isDenseCtxPtr(obj.Type(), field.Type); ok && ctx == nil {
				ctx, msg = obj, m
			} else if nbr == nil && isVertexSlice(obj.Type(), field.Type) {
				nbr = obj
			}
		}
	}
	return ctx, nbr, msg
}

// isDenseCtxPtr reports whether t is *core.DenseCtx[M], returning M.
// Where t did not resolve — the type is imported and the file is checked
// in isolation — the spelling decides instead: *pkg.DenseCtx[...] or
// *DenseCtx[...] (spelled may be nil: resolved types only).
func isDenseCtxPtr(t types.Type, spelled ast.Expr) (msg types.Type, ok bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		named, ok := ptr.Elem().(*types.Named)
		if !ok || !declaredIn(named, "DenseCtx", "internal/core") {
			return nil, false
		}
		if args := named.TypeArgs(); args != nil && args.Len() == 1 {
			return args.At(0), true
		}
		return nil, true
	}
	if t != types.Typ[types.Invalid] {
		return nil, false
	}
	star, ok := spelled.(*ast.StarExpr)
	if !ok {
		return nil, false
	}
	inner := star.X
	switch idx := inner.(type) {
	case *ast.IndexExpr:
		inner = idx.X
	case *ast.IndexListExpr:
		inner = idx.X
	}
	return nil, spelledName(inner) == "DenseCtx"
}

// isVertexSlice reports whether t is []graph.VertexID, with the same
// spelling fallback: []pkg.VertexID or []VertexID.
func isVertexSlice(t types.Type, spelled ast.Expr) bool {
	if sl, ok := t.(*types.Slice); ok {
		if named, ok := sl.Elem().(*types.Named); ok {
			return declaredIn(named, "VertexID", "internal/graph")
		}
		t = sl.Elem()
	}
	if t != types.Typ[types.Invalid] {
		return false
	}
	arr, ok := spelled.(*ast.ArrayType)
	return ok && arr.Len == nil && spelledName(arr.Elt) == "VertexID"
}

func declaredIn(named *types.Named, name, pkgSuffix string) bool {
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// spelledName returns the rightmost identifier of a (possibly selector)
// type expression.
func spelledName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// aliasSet computes the set of objects that alias root within body:
// root itself plus variables assigned from an alias (c := ctx,
// ns := srcs, ns2 := ns[1:]). Iterates to a fixed point so chains and
// out-of-order closures resolve.
func (w *walker) aliasSet(body *ast.BlockStmt, root *types.Var) map[types.Object]bool {
	set := map[types.Object]bool{root: true}
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || !w.aliases(rhs, set) {
					continue
				}
				obj := w.info.Defs[id]
				if obj == nil {
					obj = w.info.Uses[id]
				}
				if obj != nil && !set[obj] {
					set[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return set
		}
	}
}

// aliases reports whether e evaluates to (a sub-slice of) an object in
// set.
func (w *walker) aliases(e ast.Expr, set map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return set[w.info.Uses[x]]
	case *ast.ParenExpr:
		return w.aliases(x.X, set)
	case *ast.SliceExpr:
		return w.aliases(x.X, set)
	}
	return false
}

// ctxRef is how a UDF's body refers to its dense context: through the
// parameter or a local alias of it, or by the parameter's spelling. The
// spelling is what the rewriter writes, so it must be recognized even
// where the UDF shadows the name — re-instrumenting stays a no-op, and
// the compiler rejects the output unless the shadowing value is itself a
// context.
type ctxRef struct {
	aliases map[types.Object]bool
	name    string
}

// isCtxCall reports whether n (a call, or a statement that is one) is
// c.method() on the dense context: in a UDF, c refers to its context as
// ctx describes; in a helper (ctx nil: it has no context of the UDF's to
// alias) c is any expression of resolved type *core.DenseCtx[M] — the
// helper's own context parameter.
func (w *walker) isCtxCall(n ast.Node, ctx *ctxRef, method string) bool {
	if es, ok := n.(*ast.ExprStmt); ok {
		n = es.X
	}
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	if ctx == nil {
		_, isCtx := isDenseCtxPtr(w.info.TypeOf(sel.X), nil)
		return isCtx
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && (ctx.aliases[w.info.Uses[id]] || id.Name == ctx.name)
}

// neighborLoop is a loop that traverses the neighbor slice: stmt is the
// *ast.RangeStmt or *ast.ForStmt, label its own label if it has one.
type neighborLoop struct {
	stmt  ast.Stmt
	body  *ast.BlockStmt
	label string
}

// neighborLoops finds, anywhere in body (the paper's analyzer likewise
// searches "all for-loops that traverse neighbors"), the loops over an
// alias of the neighbor slice: `for _, u := range srcs` and the index
// shape `for i := 0; i < len(srcs); i++`.
func (w *walker) neighborLoops(body *ast.BlockStmt, nbr map[types.Object]bool) []neighborLoop {
	var loops []neighborLoop
	labels := map[ast.Stmt]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.LabeledStmt:
			labels[l.Stmt] = l.Label.Name
		case *ast.RangeStmt:
			if w.aliases(l.X, nbr) {
				loops = append(loops, neighborLoop{l, l.Body, labels[l]})
			}
		case *ast.ForStmt:
			if w.boundedByLen(l, nbr) {
				loops = append(loops, neighborLoop{l, l.Body, labels[l]})
			}
		}
		return true
	})
	return loops
}

// boundedByLen reports whether the for condition compares against the
// builtin len of a neighbor-slice alias.
func (w *walker) boundedByLen(l *ast.ForStmt, nbr map[types.Object]bool) bool {
	bin, ok := l.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	isLen := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := w.info.Uses[fn].(*types.Builtin)
		return builtin && fn.Name == "len" && w.aliases(call.Args[0], nbr)
	}
	return isLen(bin.X) || isLen(bin.Y)
}

// exit is one statement that ends a neighbor loop's traversal early — a
// *ast.BranchStmt (break, or continue to an enclosing loop) or an
// *ast.ReturnStmt — located by the slot it occupies, under its labels if
// any, in its statement list: the coverage test reads the slot before it
// and the rewriter inserts there.
type exit struct {
	stmt ast.Stmt
	list *[]ast.Stmt
	idx  int
}

// loopExits lists, in source order, the early exits of loop. The binding
// rules are the Go spec's:
//
//   - a plain break exits the loop unless a nested for/range/switch/select
//     captures it;
//   - a labeled break exits the loop unless its label is declared inside
//     the body — the loop's own label and any enclosing statement's label
//     both lead out of it;
//   - a labeled continue exits the loop when its label is neither the
//     loop's own nor declared inside the body: it resumes an enclosing
//     loop. A plain continue never does;
//   - a return exits it from any depth.
//
// Only statements are walked, so function literals keep their own exits.
// goto is not modeled.
func loopExits(loop neighborLoop) []exit {
	body := loop.body
	var out []exit
	inner := map[string]bool{} // labels declared inside body
	var walk func(s ast.Stmt, bound bool, list *[]ast.Stmt, idx int)
	walkList := func(list *[]ast.Stmt, bound bool) {
		for i, s := range *list {
			walk(s, bound, list, i)
		}
	}
	walk = func(s ast.Stmt, bound bool, list *[]ast.Stmt, idx int) {
		switch s := s.(type) {
		case *ast.BranchStmt:
			leaves := s.Label != nil && !inner[s.Label.Name]
			if s.Tok == token.BREAK && (leaves || s.Label == nil && bound) ||
				s.Tok == token.CONTINUE && leaves && s.Label.Name != loop.label {
				out = append(out, exit{s, list, idx})
			}
		case *ast.ReturnStmt:
			out = append(out, exit{s, list, idx})
		case *ast.LabeledStmt:
			inner[s.Label.Name] = true
			walk(s.Stmt, bound, list, idx)
		case *ast.BlockStmt:
			walkList(&s.List, bound)
		case *ast.IfStmt:
			walkList(&s.Body.List, bound)
			if s.Else != nil {
				walk(s.Else, bound, nil, 0) // a block or an if, never itself an exit
			}
		case *ast.ForStmt:
			walkList(&s.Body.List, false)
		case *ast.RangeStmt:
			walkList(&s.Body.List, false)
		case *ast.SwitchStmt:
			walkList(&s.Body.List, false)
		case *ast.TypeSwitchStmt:
			walkList(&s.Body.List, false)
		case *ast.SelectStmt:
			walkList(&s.Body.List, false)
		case *ast.CaseClause:
			walkList(&s.Body, bound)
		case *ast.CommClause:
			walkList(&s.Body, bound)
		}
	}
	walkList(&body.List, true)
	return out
}

// covered reports whether the statement before the exit is c.EmitDep()
// on the dense context — the exact shape the instrumenter emits.
func (w *walker) covered(ex exit, ctxAliases *ctxRef) bool {
	return ex.idx > 0 && w.isCtxCall((*ex.list)[ex.idx-1], ctxAliases, "EmitDep")
}

// interBreaks finds calls inside body that pass a neighbor-slice alias
// to a function declared in these files whose loop over that parameter
// exits early. depth counts helper hops from the UDF.
func (w *walker) interBreaks(body ast.Node, nbr map[types.Object]bool, depth int) []InterBreak {
	if depth > w.helperDepth {
		return nil
	}
	var out []InterBreak
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for argIdx, arg := range call.Args {
			if !w.aliases(arg, nbr) {
				continue
			}
			decl, obj := w.calleeDecl(call.Fun)
			if decl == nil {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok || sig.Params().Len() <= argIdx || sig.Variadic() && argIdx >= sig.Params().Len()-1 {
				continue
			}
			for _, ib := range w.helperExits(decl, obj, argIdx, depth) {
				ib.CallLine = w.fset.Position(call.Pos()).Line
				out = append(out, ib)
			}
		}
		return true
	})
	return out
}

// calleeDecl resolves a call target to its FuncDecl in these files, or
// nil for methods, imported functions and builtins.
func (w *walker) calleeDecl(fun ast.Expr) (*ast.FuncDecl, types.Object) {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	obj, ok := w.info.Uses[id].(*types.Func)
	if !ok {
		return nil, nil
	}
	for _, file := range w.files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && w.info.Defs[fd.Name] == obj {
				return fd, obj
			}
		}
	}
	return nil, nil
}

// helperExits lists the early exits of helper decl's traversal of its
// parameter paramIdx, including those of helpers it hands the slice on
// to. Memoized per (helper, parameter).
func (w *walker) helperExits(decl *ast.FuncDecl, obj types.Object, paramIdx, depth int) []InterBreak {
	key := helperKey{obj, paramIdx}
	if exits, ok := w.helpers[key]; ok {
		return exits
	}
	w.helpers[key] = nil

	var param *types.Var
	idx := 0
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
		}
		for _, name := range field.Names {
			if v, ok := w.info.Defs[name].(*types.Var); ok && idx == paramIdx && isVertexSlice(v.Type(), field.Type) {
				param = v
			}
			idx++
		}
	}
	if param == nil || decl.Body == nil {
		return nil
	}
	var exits []InterBreak
	aliases := w.aliasSet(decl.Body, param)
	for _, loop := range w.neighborLoops(decl.Body, aliases) {
		for _, ex := range loopExits(loop) {
			if w.isLocal(ex.stmt.Pos()) {
				continue
			}
			exits = append(exits, InterBreak{
				Callee:   decl.Name.Name,
				ExitLine: w.fset.Position(ex.stmt.Pos()).Line,
				Depth:    depth,
				Covered:  w.covered(ex, nil),
			})
		}
	}
	for _, ib := range w.interBreaks(decl.Body, aliases, depth+1) {
		ib.Callee = decl.Name.Name + ">" + ib.Callee
		exits = append(exits, ib)
	}
	w.helpers[key] = exits
	return exits
}

// carriedVars lists variables declared in the function outside the loop
// and written inside it, with resolved types and read/write access.
func (w *walker) carriedVars(loop neighborLoop, fn *ast.BlockStmt) []CarriedVar {
	type access struct{ read, write bool }
	accesses := map[*types.Var]*access{}
	var order []*types.Var
	touch := func(id *ast.Ident, write bool) {
		v, ok := w.info.Uses[id].(*types.Var)
		inLoop := ok && v.Pos() >= loop.stmt.Pos() && v.Pos() <= loop.body.End()
		inFunc := ok && v.Pos() >= fn.Pos() && v.Pos() <= fn.End()
		if !ok || inLoop || !inFunc || v.Name() == "_" {
			return
		}
		acc := accesses[v]
		if acc == nil {
			acc = &access{}
			accesses[v] = acc
			order = append(order, v)
		}
		if write {
			acc.write = true
		} else {
			acc.read = true
		}
	}
	reads := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				touch(id, false)
			}
			return true
		})
	}

	ast.Inspect(loop.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					touch(id, true)
					if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
						touch(id, false) // compound assignment reads too
					}
				}
			}
			for _, rhs := range s.Rhs {
				reads(rhs)
			}
			return false
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				touch(id, true)
				touch(id, false)
			}
			return false
		case *ast.Ident:
			touch(s, false)
		}
		return true
	})

	var out []CarriedVar
	for _, v := range order {
		acc := accesses[v]
		if !acc.write {
			continue // read-only outer state is not carried, just captured
		}
		cv := CarriedVar{Name: v.Name(), Access: "write"}
		if acc.read {
			cv.Access = "readwrite"
		}
		// go/types prints every unresolved component as "invalid type".
		if t := typeString(v.Type()); !strings.Contains(t, "invalid type") {
			cv.Type = t
		}
		out = append(out, cv)
	}
	return out
}
