package typed

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analyzer"
	"repro/internal/loader"
)

// Document is the stable JSON schema emitted by `sgc analyze -json`.
// Mode records how the targets were resolved so downstream tooling knows
// how much to trust the report: "typed" reports come from loaded
// packages; "syntactic" (the schema's name for the isolated-file pass)
// reports resolve nothing imported and follow no helper.
type Document struct {
	Mode     string            `json:"mode"` // "typed" | "syntactic"
	Packages []analyzer.Report `json:"packages"`
}

// MarshalIndent renders the document as stable, indented JSON.
func (d *Document) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// AnalyzeTargets runs the analysis over the given targets (files or
// directories). With resolve, directories are loaded as packages and a
// lone file is loaded with its surrounding directory so its imports
// resolve; a target that cannot be loaded — it is outside any module, or
// its package does not type-check at all — falls back to the isolated
// pass, and the document's Mode says so. Without resolve every target
// takes the isolated pass: the paper's per-translation-unit analysis.
// The returned error is non-nil only when a target cannot be analyzed
// at all.
func AnalyzeTargets(resolve bool, targets ...string) (*Document, error) {
	doc := &Document{Mode: "syntactic"}
	if resolve {
		doc.Mode = "typed"
	}
	var ld *Loader // built on first use; memoizes across targets
	for _, target := range targets {
		fi, err := os.Stat(target)
		if err != nil {
			return nil, err
		}
		var loadErr error
		if resolve {
			var rep *analyzer.Report
			if rep, loadErr = analyzeLoaded(&ld, target, fi.IsDir()); loadErr == nil {
				doc.Packages = append(doc.Packages, *rep)
				continue
			}
			doc.Mode = "syntactic"
		}
		rep, err := analyzeIsolated(target, fi.IsDir())
		if err != nil {
			if loadErr != nil {
				err = fmt.Errorf("typed analysis failed (%v); isolated fallback failed: %w", loadErr, err)
			}
			return nil, err
		}
		doc.Packages = append(doc.Packages, *rep)
	}
	return doc, nil
}

// analyzeLoaded loads the target's directory as a package and analyzes
// it. When the target is a single file, the report is filtered to it.
func analyzeLoaded(ld **Loader, target string, isDir bool) (*analyzer.Report, error) {
	dir := target
	if !isDir {
		dir = filepath.Dir(target)
	}
	if *ld == nil {
		// Outside any module the root stays empty and NewLoader falls
		// back to the working directory.
		root, _ := loader.FindModuleRoot(dir)
		l, err := NewLoader(Config{ModuleRoot: root})
		if err != nil {
			return nil, err
		}
		*ld = l
	}
	pkg, err := (*ld).LoadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := AnalyzePackage(pkg)
	if !isDir {
		base := filepath.Base(target)
		kept := rep.Funcs[:0]
		for _, f := range rep.Funcs {
			if f.File == base {
				kept = append(kept, f)
			}
		}
		rep.Funcs = kept
	}
	return rep, nil
}

func analyzeIsolated(target string, isDir bool) (*analyzer.Report, error) {
	if isDir {
		return analyzer.AnalyzeDir(target)
	}
	src, err := os.ReadFile(target)
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(target, src)
}
