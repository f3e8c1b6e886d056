// Package loader is the shared stdlib-only package loader behind every
// type-resolved analysis in the repository: the §4 UDF analysis
// (internal/analyzer/typed) and the sgvet invariant suite
// (internal/sgvet) both load and type-check packages through it, so
// module discovery, import resolution and memoization live in exactly
// one place.
//
// The loader is deliberately stdlib-only (go/build for file selection,
// go/parser + go/types for checking, the source importer for GOROOT
// packages): the build environment pins dependencies, so
// golang.org/x/tools/go/packages is not available. Imports inside the
// current module are resolved by walking the module tree itself;
// everything else is delegated to importer.ForCompiler(fset, "source").
// Only non-test files are loaded, so sgvet polices shipped code only.
package loader

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's path within the module (or the
	// synthetic path it was loaded under).
	ImportPath string
	// Dir is the directory the files were read from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	// Filenames parallels Files.
	Filenames []string

	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check errors; loading is tolerant, so a
	// package with errors still yields whatever type information could
	// be computed.
	TypeErrors []error
}

// Config parameterizes a Loader. The zero value discovers the module
// from the working directory.
type Config struct {
	// ModuleRoot is the directory containing go.mod. Discovered by
	// walking up from Dir (or the working directory) when empty.
	ModuleRoot string
	// ModulePath is the module's path. Parsed from go.mod when empty.
	ModulePath string
}

// Loader loads and type-checks packages of one module. It memoizes by
// import path, so repeated imports (and the stdlib behind them) are
// checked once per Loader.
type Loader struct {
	cfg  Config
	fset *token.FileSet
	std  types.Importer
	ctxt build.Context

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader returns a loader for the module identified by cfg, or an
// error when no go.mod can be found.
func NewLoader(cfg Config) (*Loader, error) {
	if cfg.ModuleRoot == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root, err := FindModuleRoot(wd)
		if err != nil {
			return nil, err
		}
		cfg.ModuleRoot = root
	}
	if cfg.ModulePath == "" {
		b, err := os.ReadFile(filepath.Join(cfg.ModuleRoot, "go.mod"))
		if err != nil {
			return nil, fmt.Errorf("loader: reading go.mod: %w", err)
		}
		m := moduleRe.FindSubmatch(b)
		if m == nil {
			return nil, fmt.Errorf("loader: no module directive in %s/go.mod", cfg.ModuleRoot)
		}
		cfg.ModulePath = string(m[1])
	}
	fset := token.NewFileSet()
	ctxt := build.Default
	ctxt.CgoEnabled = false // pure-Go module; never invoke cgo for our own files
	return &Loader{
		cfg:     cfg,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		ctxt:    ctxt,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModuleRoot returns the directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.cfg.ModuleRoot }

// ModulePath returns the module path.
func (l *Loader) ModulePath() string { return l.cfg.ModulePath }

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadDir loads the package in a single directory. The directory may
// live outside the module tree (test fixtures); imports are still
// resolved against the loader's module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(dir)
	return l.load(path, dir)
}

// LoadPatterns expands package patterns relative to the module root —
// "./..." wildcards and plain directory paths — and loads each package.
// Directories without buildable Go files are skipped silently, matching
// the go tool.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rel := strings.TrimPrefix(pat, "./")
		switch {
		case rel == "..." || strings.HasSuffix(rel, "/..."):
			base := strings.TrimSuffix(rel, "...")
			base = strings.TrimSuffix(base, "/")
			root := filepath.Join(l.cfg.ModuleRoot, base)
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				add(p)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("loader: expanding %s: %w", pat, err)
			}
		default:
			if filepath.IsAbs(pat) {
				add(pat)
			} else {
				add(filepath.Join(l.cfg.ModuleRoot, rel))
			}
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			if isNoGo(err) {
				continue
			}
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

func isNoGo(err error) bool {
	var ng *build.NoGoError
	return errors.As(err, &ng)
}

// importPathFor maps a directory to its import path: module-relative
// when inside the module, a synthetic rooted path otherwise.
func (l *Loader) importPathFor(dir string) string {
	if rel, err := filepath.Rel(l.cfg.ModuleRoot, dir); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.cfg.ModulePath
		}
		return l.cfg.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return "dir:" + filepath.ToSlash(dir)
}

// dirFor maps an import path inside the module to its directory, or ""
// when the path is not ours.
func (l *Loader) dirFor(path string) string {
	if path == l.cfg.ModulePath {
		return l.cfg.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, l.cfg.ModulePath+"/"); ok {
		return filepath.Join(l.cfg.ModuleRoot, filepath.FromSlash(rest))
	}
	if rest, ok := strings.CutPrefix(path, "dir:"); ok {
		return filepath.FromSlash(rest)
	}
	return ""
}

// Import implements types.Importer: module-internal paths are loaded
// from source by this loader, everything else (GOROOT) by the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir under import path,
// memoized.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)

	pkg := &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	for _, name := range names {
		full := filepath.Join(dir, name)
		file, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		pkg.Files = append(pkg.Files, file)
		pkg.Filenames = append(pkg.Filenames, full)
	}

	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("loader: checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}
