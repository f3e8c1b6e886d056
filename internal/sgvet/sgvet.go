// Package sgvet is SympleGraph's project-invariant lint suite: a small
// go/analysis-style framework (stdlib-only — the build environment pins
// dependencies, so golang.org/x/tools is unavailable) plus the nine
// analyzers that machine-check invariants the engine's correctness
// leans on. The flow-sensitive ones run on a shared analysis engine —
// a per-function CFG (cfg.go), a generic forward dataflow solver
// (dataflow.go), and bottom-up interprocedural summaries cached in the
// per-package Facts (summary.go):
//
//   - depbreak — a dense-signal UDF whose neighbor traversal exits
//     early without ctx.EmitDep() silently loses the precise
//     loop-carried-dependency guarantee (paper Listing 2's failure
//     class). Reads the §4 record of internal/analyzer over the loaded
//     package, including interprocedural helper breaks.
//   - snapdet — map iteration feeding an order-sensitive sink inside
//     snapshot/checkpoint/stats code is nondeterministic and breaks the
//     bit-identical recovery contract.
//   - commerr — comm/engine taxonomy errors compared with == (pointer
//     identity — never true for wrapped errors) or discarded; the
//     recovery loop and CLI exit codes classify with errors.As.
//   - ctxblock — channel operations in serving paths without a
//     ctx.Done()/default escape arm can wedge a handler forever and
//     defeat graceful drain.
//   - bufown — a Message.Payload read after Release(), or a buffer
//     touched after SendBufs handed its ownership to the transport,
//     races with the slab recycling it for the next superstep.
//   - fleetstate — fleet health compared via WorkerState.String() or
//     raw state-name strings instead of the typed enum; a renamed or
//     added state then fails silently at the branch, not the build.
//   - epochpin — a raw *graph.Graph struct-field read in the serving
//     front-end bypasses the epoch snapshot accessor and can observe a
//     mutation mid-query; versions must come from graphEntry.Resolve.
//   - lockorder — engine-backed: per-path mutex acquire/release
//     tracking; lock-order inversions, self-deadlocks, and locks held
//     across channel ops or blocking comm calls.
//   - leakgo — engine-backed: goroutine launches whose body's CFG has
//     no reachable exit, so no shutdown signal can ever stop them.
//
// Diagnostics can be suppressed per line with
//
//	//sgvet:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line above. The reason is mandatory:
// an ignore documents why the invariant holds anyway, and `sgvet
// -audit` lists every suppression and fails on an empty justification.
package sgvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"

	"repro/internal/loader"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass gives an analyzer one loaded package, the package's shared
// engine cache (CFGs, declaration index, interprocedural summaries),
// and a reporting sink.
type Pass struct {
	Pkg   *loader.Package
	Facts *Facts
	diags *[]Diagnostic
	name  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.ReportAt(position.Filename, position.Line, position.Column, format, args...)
}

// ReportAt records a diagnostic at an explicit file/line, for findings
// derived from reports that carry positions as lines (internal/analyzer).
func (p *Pass) ReportAt(file string, line, col int, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.name,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{DepBreak, SnapDet, CommErr, CtxBlock, BufOwn, FleetState, EpochPin, LockOrder, LeakGo}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("sgvet: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns surviving
// diagnostics, sorted by position, with //sgvet:ignore suppressions
// applied.
func Run(pkgs []*loader.Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers)
	return diags
}

// Timing is one analyzer's aggregate wall time and surviving finding
// count over a RunTimed call — the `make lint` per-analyzer report.
type Timing struct {
	Analyzer string
	Millis   float64
	Findings int
}

// RunTimed is Run with a per-analyzer wall-time and finding-count
// breakdown (ordered like the analyzers argument).
func RunTimed(pkgs []*loader.Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var diags []Diagnostic
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		ignores := ignoreLines(pkg)
		facts := newFacts(pkg)
		var pkgDiags []Diagnostic
		for i, a := range analyzers {
			start := time.Now()
			a.Run(&Pass{Pkg: pkg, Facts: facts, diags: &pkgDiags, name: a.Name})
			elapsed[i] += time.Since(start)
		}
		for _, d := range pkgDiags {
			if ignores.covers(d) {
				continue
			}
			// Test files exercise failure paths on purpose — wedging
			// channels, asserting exact error identity — so the suite
			// polices shipped code only. (The source loader never feeds
			// test files; this matters in `go vet -vettool` mode, where
			// the toolchain hands us the test variant of each package.)
			if strings.HasSuffix(d.File, "_test.go") {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	timings := make([]Timing, len(analyzers))
	for i, a := range analyzers {
		timings[i] = Timing{
			Analyzer: a.Name,
			Millis:   float64(elapsed[i].Microseconds()) / 1000,
			Findings: counts[a.Name],
		}
	}
	return diags, timings
}

// ignoreSet maps file → line → set of ignored analyzer names ("*" for
// all).
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) covers(d Diagnostic) bool {
	lines := s[d.File]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		if names := lines[line]; names != nil && (names["*"] || names[d.Analyzer]) {
			return true
		}
	}
	// An ignore placed above the diagnostic line must be adjacent;
	// handled by the line-1 check. Same-line trailing comments are the
	// d.Line check.
	return false
}

// Suppression is one //sgvet:ignore directive, with its justification
// text — the audit surface `sgvet -audit` renders and polices.
type Suppression struct {
	File      string
	Line      int
	Analyzers []string
	Reason    string
}

// CollectSuppressions parses every //sgvet:ignore directive in the
// packages, sorted by position.
func CollectSuppressions(pkgs []*loader.Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		out = append(out, parseSuppressions(pkg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// parseSuppressions extracts the //sgvet:ignore directives of one
// package: `//sgvet:ignore <analyzer>[,<analyzer>] <reason...>`. A
// directive with no analyzer list suppresses everything ("*") — and
// necessarily has no reason, which the audit flags.
func parseSuppressions(pkg *loader.Package) []Suppression {
	var out []Suppression
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(strings.TrimPrefix(text, "/*"))
				rest, ok := strings.CutPrefix(text, "sgvet:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				sup := Suppression{}
				if len(fields) == 0 {
					sup.Analyzers = []string{"*"}
				} else {
					for _, n := range strings.Split(fields[0], ",") {
						if n != "" {
							sup.Analyzers = append(sup.Analyzers, n)
						}
					}
					sup.Reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				pos := pkg.Fset.Position(c.Pos())
				sup.File = pos.Filename
				sup.Line = pos.Line
				out = append(out, sup)
			}
		}
	}
	return out
}

// ignoreLines folds a package's suppressions into the line-lookup shape
// Run consults.
func ignoreLines(pkg *loader.Package) ignoreSet {
	set := ignoreSet{}
	for _, sup := range parseSuppressions(pkg) {
		lines := set[sup.File]
		if lines == nil {
			lines = map[int]map[string]bool{}
			set[sup.File] = lines
		}
		if lines[sup.Line] == nil {
			lines[sup.Line] = map[string]bool{}
		}
		for _, n := range sup.Analyzers {
			lines[sup.Line][n] = true
		}
	}
	return set
}

// inspectFiles walks every file of the pass's package.
func (p *Pass) inspectFiles(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
