// Package sgvet is SympleGraph's project-invariant lint suite: a small
// go/analysis-style framework (stdlib-only — the build environment pins
// dependencies, so golang.org/x/tools is unavailable) plus six
// analyzers, each of which names the invariant it machine-checks and
// the evidence that the invariant needs a guard — a bug it caught, a
// test that pins the fix, or live suppressions that document where it
// holds anyway:
//
//   - depbreak — a dense-signal UDF whose neighbor traversal exits
//     early without ctx.EmitDep() silently loses the precise
//     loop-carried-dependency guarantee (the paper's §4).
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
//     races with the slab recycling it for the next superstep. It runs
//     on the flow-sensitive engine: a per-function CFG (cfg.go), a
//     generic forward dataflow solver (dataflow.go), and bottom-up
//     interprocedural summaries cached in the per-package Facts
//     (summary.go).
//   - fleetstate — fleet health compared via WorkerState.String() or
//     raw state-name strings instead of the typed enum; a renamed or
//     added state then fails silently at the branch, not the build.
//
// Diagnostics can be suppressed with
//
//	//sgvet:ignore <analyzer>[,<analyzer>] <reason>
//
// trailing the offending line, or alone on the line above it. The
// reason is mandatory: an ignore documents why the invariant holds
// anyway, and `sgvet -audit` lists every suppression and fails on an
// empty justification.
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
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{DepBreak, SnapDet, CommErr, CtxBlock, BufOwn, FleetState}
}

// Timing is one analyzer's aggregate wall time and surviving finding
// count over a Run call — the `make lint` per-analyzer report.
type Timing struct {
	Analyzer string
	Millis   float64
	Findings int
}

// Run executes the analyzers over the packages and returns surviving
// diagnostics, sorted by position, with //sgvet:ignore suppressions
// applied, and a per-analyzer wall-time and finding-count breakdown
// (ordered like the analyzers argument).
func Run(pkgs []*loader.Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
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
			if !ignores.covers(d) {
				diags = append(diags, d)
			}
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

// ignoreSet maps file → covered line → set of ignored analyzer names
// ("*" for all).
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) covers(d Diagnostic) bool {
	names := s[d.File][d.Line]
	return names["*"] || names[d.Analyzer]
}

// Suppression is one //sgvet:ignore directive, with its justification
// text — the audit surface `sgvet -audit` renders and polices.
type Suppression struct {
	File      string
	Line      int
	Analyzers []string
	Reason    string
	// alone is set when the directive is the only thing on its line,
	// so it covers the line below; a trailing directive covers only
	// its own line.
	alone bool
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
		var code map[int]token.Pos
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
				if code == nil {
					code = firstCode(pkg.Fset, file)
				}
				first, ok := code[sup.Line]
				sup.alone = !ok || first > c.Pos()
				out = append(out, sup)
			}
		}
	}
	return out
}

// firstCode maps each line of file to the position of the first
// syntax it holds — the start or the last byte of any non-comment
// node — so a directive can tell whether code precedes it on its line.
func firstCode(fset *token.FileSet, file *ast.File) map[int]token.Pos {
	first := map[int]token.Pos{}
	note := func(p token.Pos) {
		if !p.IsValid() {
			return
		}
		line := fset.Position(p).Line
		if q, ok := first[line]; !ok || p < q {
			first[line] = p
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup:
			return false
		}
		note(n.Pos())
		note(n.End() - 1)
		return true
	})
	return first
}

// ignoreLines folds a package's suppressions into the line-lookup shape
// Run consults: each directive covers its own line, and the line below
// when it stands alone.
func ignoreLines(pkg *loader.Package) ignoreSet {
	set := ignoreSet{}
	cover := func(file string, line int, analyzers []string) {
		lines := set[file]
		if lines == nil {
			lines = map[int]map[string]bool{}
			set[file] = lines
		}
		if lines[line] == nil {
			lines[line] = map[string]bool{}
		}
		for _, n := range analyzers {
			lines[line][n] = true
		}
	}
	for _, sup := range parseSuppressions(pkg) {
		cover(sup.File, sup.Line, sup.Analyzers)
		if sup.alone {
			cover(sup.File, sup.Line+1, sup.Analyzers)
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
