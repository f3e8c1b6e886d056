package sgvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// SnapDet enforces the bit-identical recovery contract: a
// checkpoint blob, fingerprint, or stats emission assembled by ranging
// over a map is nondeterministic (Go randomizes map iteration), so a
// restart can produce a byte-different snapshot of identical state —
// breaking resume-on-identical-query, content fingerprints, and every
// test that asserts recovered == uninterrupted.
//
// Two rules:
//
//  1. Inside deterministic contexts — functions or methods whose name
//     or receiver smells like serialization (Encode/Marshal/Snapshot/
//     Checkpoint/Fingerprint/Stats/Status/Write/Dump/Export/Serialize,
//     or receivers like *Codec/*Store) — a range over a map that feeds
//     an order-sensitive sink is flagged: a write to an io.Writer /
//     builder / hash, a string or floating-point accumulation, or an
//     append whose slice is not subsequently sorted in the same
//     function.
//  2. Anywhere — a function that *returns* a slice populated by map
//     iteration without sorting it first leaks nondeterministic order
//     into its API.
//
// Iterating a map to build another map, to delete keys, or to fold an
// order-insensitive reduction (integer sums, max) is fine and not
// flagged. A matcher, not an engine client: whether a map range feeds
// a sink is a property of its body, not of a path through it.
//
// Evidence: rule 2 caught the serving pool's graph-name listing
// (graphNames) returning map order, so /statusz and error messages
// changed run to run; the sort that fixed it is pinned by
// internal/server's TestPoolNamesSorted.
var SnapDet = &Analyzer{
	Name: "snapdet",
	Doc:  "nondeterministic map iteration in snapshot/checkpoint/stats emission",
	Run:  runSnapDet,
}

var (
	snapdetNameRe = regexp.MustCompile(`(?i)encode|marshal|snapshot|checkpoint|fingerprint|stats|status|write|dump|export|serialize|emit`)
	snapdetRecvRe = regexp.MustCompile(`(?i)codec|store|registry|tracer`)
)

func runSnapDet(p *Pass) {
	p.inspectFiles(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		deterministic := snapdetNameRe.MatchString(fd.Name.Name)
		if !deterministic && fd.Recv != nil {
			if tn := recvTypeName(fd.Recv); tn != "" && snapdetRecvRe.MatchString(tn) {
				deterministic = true
			}
		}
		snapdetFunc(p, fd.Body, deterministic)
		return true
	})
}

func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// snapdetFunc checks every map-range loop in one function body.
func snapdetFunc(p *Pass, body *ast.BlockStmt, deterministic bool) {
	info := p.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(p, body, rng, deterministic)
		return true
	})
}

func checkMapRange(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, deterministic bool) {
	info := p.Pkg.Info

	// outerVar resolves an identifier to a variable declared outside
	// the loop (loop-carried sink target).
	outerVar := func(e ast.Expr) *types.Var {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := info.Uses[id].(*types.Var)
		if ok && v != nil && (v.Pos() < rng.Pos() || v.Pos() > rng.End()) {
			return v
		}
		return nil
	}

	var appendTargets []*types.Var
	orderSink := token.NoPos

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			switch fun := s.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" && len(s.Args) > 0 {
					if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
						if v := outerVar(s.Args[0]); v != nil {
							appendTargets = append(appendTargets, v)
						}
					}
				}
			case *ast.SelectorExpr:
				// Writer/builder/hash emission methods, and fmt.Fprint*.
				switch fun.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					if orderSink == token.NoPos {
						orderSink = s.Pos()
					}
				case "Fprintf", "Fprint", "Fprintln":
					if f, ok := info.Uses[fun.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
						if orderSink == token.NoPos {
							orderSink = s.Pos()
						}
					}
				}
			}
		case *ast.AssignStmt:
			// String concatenation or floating-point accumulation is
			// order-sensitive; integer accumulation is not.
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
				if v := outerVar(s.Lhs[0]); v != nil {
					if b, ok := v.Type().Underlying().(*types.Basic); ok &&
						b.Info()&(types.IsString|types.IsFloat) != 0 {
						if orderSink == token.NoPos {
							orderSink = s.Pos()
						}
					}
				}
			}
		}
		return true
	})

	if deterministic && orderSink != token.NoPos {
		p.Reportf(rng.Pos(), "map iteration feeds an order-sensitive sink (line %d): iteration order is random, so emitted bytes differ run to run — collect and sort keys first",
			p.Pkg.Fset.Position(orderSink).Line)
	}

	for _, v := range appendTargets {
		sorted := sortedAfter(p, body, rng, v)
		returned := returnedAfter(p, body, rng, v)
		switch {
		case sorted:
		case deterministic:
			p.Reportf(rng.Pos(), "map iteration appends to %s which is never sorted: snapshot/stats bytes become nondeterministic — sort before emitting", v.Name())
		case returned:
			p.Reportf(rng.Pos(), "map iteration populates returned slice %s without sorting: callers observe random order — sort before returning", v.Name())
		}
	}
}

// sortedAfter reports whether v is passed to a sort/slices function
// after the loop within the same body.
func sortedAfter(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, v *types.Var) bool {
	info := p.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		if path := f.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == v {
				found = true
			}
		}
		return true
	})
	return found
}

// returnedAfter reports whether v appears in a return statement after
// the loop.
func returnedAfter(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, v *types.Var) bool {
	info := p.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() < rng.End() {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok && info.Uses[id] == v {
				found = true
			}
		}
		return true
	})
	return found
}
