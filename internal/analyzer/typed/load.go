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
// Package loading and type resolution live in the shared
// internal/loader package — one loader serves this analysis, the sgvet
// invariant suite, and cmd/sgvet's vettool mode. The aliases below keep
// this package's historical API surface, so analyses keep reading
// typed.Package while resolution policy is maintained in one place.
package typed

import (
	"repro/internal/analyzer"
	"repro/internal/loader"
)

// Package is one loaded, type-checked package (alias of the shared
// loader's type — a *typed.Package and a *loader.Package are the same
// value).
type Package = loader.Package

// Config parameterizes a Loader.
type Config = loader.Config

// Loader loads and type-checks packages of one module.
type Loader = loader.Loader

// NewLoader returns a loader for the module identified by cfg, or an
// error when no go.mod can be found.
func NewLoader(cfg Config) (*Loader, error) { return loader.NewLoader(cfg) }

// AnalyzePackage runs the §4 analysis over one loaded package.
func AnalyzePackage(pkg *Package) *analyzer.Report {
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
