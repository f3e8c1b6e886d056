// Package typed is the loader glue of SympleGraph's §4 UDF analysis. The
// analysis itself — one walker over go/types, in internal/analyzer —
// needs only parsed files and their resolution; this package feeds it
// whole packages loaded through internal/loader, so that imported types
// resolve (a signal UDF is a function with a parameter of resolved type
// *core.DenseCtx[M] and one of resolved type []graph.VertexID, however
// they are spelled) and helpers the neighbor slice is handed to are
// followed across the package's files. It also owns the JSON document
// `sgc analyze -json` emits.
//
// Package loading and type resolution live in internal/loader, which
// the sgvet invariant suite loads through as well.
package typed

import (
	"repro/internal/analyzer"
	"repro/internal/loader"
)

// AnalyzePackage runs the §4 analysis over one loaded package.
func AnalyzePackage(pkg *loader.Package) *analyzer.Report {
	rep := &analyzer.Report{
		ImportPath: pkg.ImportPath,
		Dir:        pkg.Dir,
		Funcs:      analyzer.AnalyzeFiles(pkg.Fset, pkg.Files, pkg.Info),
	}
	for _, err := range pkg.TypeErrors {
		rep.TypeErrors = append(rep.TypeErrors, err.Error())
	}
	return rep
}
