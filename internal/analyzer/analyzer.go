// Package analyzer is SympleGraph's UDF analysis and instrumentation tool
// (paper §4), reimplemented over go/ast and go/types instead of clang
// LibTooling. One walker (walker.go) produces one per-loop record, and
// everything else derives from it:
//
//  1. Analysis — locate dense-signal functions (a *core.DenseCtx[M]
//     context parameter and a []graph.VertexID neighbor slice), follow
//     local aliases of both, find the loops that traverse neighbors, and
//     list each loop's early exits: breaks bound to the loop (plain or
//     labeled), continues to an enclosing loop, returns inside it, and — in a loaded package — exits of
//     package-local helpers the slice is handed to. An exit is covered
//     when ctx.EmitDep() is the statement before it. Variables declared
//     outside the loop and written inside it are the candidate
//     loop-carried data state (K-core's count, sampling's prefix sum).
//  2. Instrumentation — a source-to-source transformation (instrument.go)
//     that inserts ctx.EmitDep() before each uncovered break the record
//     lists (the paper's emit_dep, Figure 5) and ctx.Edge() at the top of
//     the loop body (traversal accounting). The receive_dep/skip check of
//     Figure 5 is performed by the engine before the signal is invoked,
//     so no code is inserted for it.
//
// The walker runs over go/types resolution in two settings. AnalyzeFiles
// takes the files of a loaded, type-checked package (internal/loader via
// analyzer/typed; sgvet's depbreak) and follows helpers four hops deep.
// Analyze and Instrument take one isolated file, the way the paper's tool
// takes one translation unit: the file is type-checked on its own with an
// importer that resolves nothing, so parameters, := aliases, the builtin
// len and in-file declarations all resolve and only imported types come
// back invalid — there, and only there, the parameter's spelled type
// decides (isDenseCtxPtr, isVertexSlice) — and helpers are not followed:
// one function at a time, the prototype's limit.
package analyzer

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strings"
)

// Instrumentation state of a signal UDF.
const (
	// InstrumentedNotNeeded — no neighbor-loop early exit, nothing to
	// instrument.
	InstrumentedNotNeeded = "not-needed"
	// InstrumentedYes — every neighbor-loop early exit is immediately
	// preceded by ctx.EmitDep().
	InstrumentedYes = "yes"
	// InstrumentedPartial — some early exits are covered, others not:
	// the paper Listing 2 manual-fix failure class.
	InstrumentedPartial = "partial"
	// InstrumentedNo — early exits exist and none is covered.
	InstrumentedNo = "no"
)

// CarriedVar is one loop-carried data-dependency candidate: a variable
// declared outside the neighbor loop and written inside it — a
// DepMessage data member in the paper's terms.
type CarriedVar struct {
	Name string `json:"name"`
	// Type is the variable's resolved type; empty when it does not
	// resolve (an imported type in an isolated file).
	Type string `json:"type,omitempty"`
	// Access is "write" or "readwrite". An accumulator the loop both
	// reads and updates (cnt++, sum += w) is "readwrite" — true carried
	// state; a write-only variable is a result slot.
	Access string `json:"access"`
}

// InterBreak is an interprocedural early exit: the UDF (or a helper)
// passes the neighbor slice to a callee whose loop over it exits early.
type InterBreak struct {
	// Callee is the helper's name.
	Callee string `json:"callee"`
	// CallLine is the call site's line in the caller.
	CallLine int `json:"call_line"`
	// ExitLine is the early exit's line inside the (possibly nested)
	// callee.
	ExitLine int `json:"exit_line"`
	// Depth is the call depth (1 = direct helper).
	Depth int `json:"depth"`
	// Covered reports that the helper emits the dependency itself
	// (ctx.EmitDep() immediately before the exit).
	Covered bool `json:"covered"`
}

// LoopReport is the record of one neighbor-traversal loop.
type LoopReport struct {
	Line int `json:"line"`
	// Breaks counts branch statements that leave the loop: plain breaks
	// bound to it, labeled breaks whose label lies outside its body, and
	// continues to an enclosing loop's label.
	Breaks int `json:"breaks"`
	// Returns counts return statements inside the loop.
	Returns int `json:"returns,omitempty"`
	// LocalExits counts early exits annotated //sgc:local — intentional
	// machine-local breaks that are not loop-carried dependencies (e.g.
	// a re-walk of neighbors already fully scanned). They need no
	// EmitDep and are excluded from Breaks/Returns.
	LocalExits int `json:"local_exits,omitempty"`
	// UncoveredExits lists the lines of breaks/returns not immediately
	// preceded by ctx.EmitDep().
	UncoveredExits []int `json:"uncovered_exits,omitempty"`
	// UncoveredReturns is the subset of UncoveredExits that are return
	// statements: Instrument patches breaks only, a return needs its
	// ctx.EmitDep() written by hand.
	UncoveredReturns []int `json:"uncovered_returns,omitempty"`
	// Carried lists loop-carried data-dependency candidates.
	Carried []CarriedVar `json:"carried,omitempty"`

	// What Instrument rewrites: the loop body, whether it already opens
	// with ctx.Edge(), and the uncovered breaks.
	body  *ast.BlockStmt
	edged bool
	patch []exit
}

// FuncReport describes one signal UDF.
type FuncReport struct {
	// Name is the function name, or "<anonymous>" for function literals.
	Name string `json:"name"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Path is the file's full path (excluded from JSON, which keeps the
	// stable base name in File).
	Path string `json:"-"`

	CtxParam      string `json:"ctx_param"`
	NeighborParam string `json:"neighbor_param"`
	// MsgType is the DenseCtx type argument (the update-message type M),
	// where it resolves.
	MsgType string `json:"msg_type,omitempty"`

	Loops []LoopReport `json:"loops"`
	// InterBreaks lists early exits reached through helpers.
	InterBreaks []InterBreak `json:"inter_breaks,omitempty"`

	// LoopCarried reports whether any path — direct or through a
	// helper — exits neighbor traversal early.
	LoopCarried bool `json:"loop_carried"`
	// Instrumented is one of the Instrumented* constants.
	Instrumented string `json:"instrumented"`

	// EmitsDep records an EmitDep call anywhere in the function — it was
	// instrumented before, by hand or by an earlier pass. Instrument
	// still adds the EmitDep calls it lacks but leaves its traversal
	// accounting as written.
	EmitsDep bool `json:"emits_dep,omitempty"`
	// Lanes is one more than the highest constant lane the function
	// passes to ctx.DepFloat or ctx.SetDepFloat: the lanes its pass must
	// declare.
	Lanes int `json:"lanes,omitempty"`
}

// Report is the analysis of one package, or of one isolated file or
// directory of isolated files.
type Report struct {
	ImportPath string       `json:"import_path"`
	Dir        string       `json:"dir,omitempty"`
	Funcs      []FuncReport `json:"funcs"`
	TypeErrors []string     `json:"type_errors,omitempty"`
}

// LoopCarriedFuncs returns the names of UDFs needing dependency
// propagation.
func (r *Report) LoopCarriedFuncs() []string {
	var out []string
	for _, f := range r.Funcs {
		if f.LoopCarried {
			out = append(out, f.Name)
		}
	}
	return out
}

// String renders the report in the tool's human format.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Funcs {
		fmt.Fprintf(&b, "func %s (%s:%d): ctx=%s neighbors=%s", f.Name, f.File, f.Line, f.CtxParam, f.NeighborParam)
		if f.MsgType != "" {
			fmt.Fprintf(&b, " msg=%s", f.MsgType)
		}
		fmt.Fprintf(&b, " [instrumented=%s]\n", f.Instrumented)
		for _, l := range f.Loops {
			fmt.Fprintf(&b, "  loop at line %d: breaks=%d", l.Line, l.Breaks)
			if l.Returns > 0 {
				fmt.Fprintf(&b, " returns=%d", l.Returns)
			}
			if len(l.Carried) > 0 {
				names := make([]string, len(l.Carried))
				for i, c := range l.Carried {
					desc := c.Access
					if c.Type != "" {
						desc = c.Type + " " + c.Access
					}
					names[i] = fmt.Sprintf("%s(%s)", c.Name, desc)
				}
				fmt.Fprintf(&b, " carried=%v", names)
			}
			b.WriteString("\n")
		}
		for _, ib := range f.InterBreaks {
			fmt.Fprintf(&b, "  helper exit via %s (call line %d, exit line %d, depth %d, covered=%v)\n",
				ib.Callee, ib.CallLine, ib.ExitLine, ib.Depth, ib.Covered)
		}
		if f.LoopCarried {
			b.WriteString("  => loop-carried dependency\n")
		} else {
			b.WriteString("  => no loop-carried dependency\n")
		}
	}
	return b.String()
}

// Helper hops the walker follows from a UDF: four in a loaded package,
// none in an isolated file.
const (
	packageHelperDepth  = 4
	isolatedHelperDepth = 0
)

// AnalyzeFiles runs the analysis over the files of one loaded package,
// type-checked into info (Types, Defs and Uses are read).
func AnalyzeFiles(fset *token.FileSet, files []*ast.File, info *types.Info) []FuncReport {
	return newWalker(fset, files, info, packageHelperDepth).funcs()
}

// Analyze runs the analysis over src, a complete Go file taken in
// isolation (filename is for positions).
func Analyze(filename string, src []byte) (*Report, error) {
	w, err := isolated(filename, src)
	if err != nil {
		return nil, err
	}
	return isolatedReport(filename, w.funcs()), nil
}

// isolatedReport is the record of an isolated target: a file, or a
// directory of files each checked on its own.
func isolatedReport(target string, funcs []FuncReport) *Report {
	return &Report{ImportPath: "file:" + filepath.ToSlash(target), Dir: target, Funcs: funcs}
}

// nothing is the isolated pass's importer: every import resolves to an
// empty package, so the file checks without reading anything else and
// each imported name comes back invalid.
type nothing struct{}

func (nothing) Import(pkgPath string) (*types.Package, error) {
	pkg := types.NewPackage(pkgPath, path.Base(pkgPath))
	pkg.MarkComplete()
	return pkg, nil
}

// isolated parses src and type-checks it on its own, tolerantly: type
// errors (every use of an import, at the least) are expected and
// ignored; the walker proceeds on what resolved.
func isolated(filename string, src []byte) (*walker, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("analyzer: %w", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: nothing{}, Error: func(error) {}}
	_, _ = conf.Check(file.Name.Name, fset, []*ast.File{file}, info) // the errors went to conf.Error
	return newWalker(fset, []*ast.File{file}, info, isolatedHelperDepth), nil
}
