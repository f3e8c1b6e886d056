// Command sgvet runs SympleGraph's invariant lint suite (package
// internal/sgvet) over the repository; `make lint` runs it:
//
//	sgvet ./...                   # whole module
//	sgvet ./internal/server/...   # a subtree
//	sgvet -times ./...            # per-analyzer wall-time report
//	sgvet -audit ./...            # list //sgvet:ignore suppressions
//
// Packages are loaded and type-checked from source by internal/loader.
// Exit status is 0 when clean, 1 when diagnostics were reported (or,
// under -audit, when a suppression has no justification), 2 on usage
// or load errors.
//
// -audit inventories every //sgvet:ignore directive with its file:line,
// analyzer list and justification text; a suppression with an empty
// justification fails the audit, so silencing an analyzer without
// saying why cannot survive CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/loader"
	"repro/internal/sgvet"
)

func main() {
	fs := flag.NewFlagSet("sgvet", flag.ExitOnError)
	audit := fs.Bool("audit", false, "list //sgvet:ignore suppressions; fail on empty justifications")
	times := fs.Bool("times", false, "report per-analyzer wall time on stderr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sgvet [-audit] [-times] [patterns...]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range sgvet.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld, err := loader.NewLoader(loader.Config{})
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := ld.LoadPatterns(patterns...)
	if err != nil {
		fatalf("%v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "sgvet: %s: type error: %v\n", pkg.ImportPath, terr)
		}
	}

	if *audit {
		os.Exit(runAudit(pkgs))
	}

	diags, timings := sgvet.Run(pkgs, sgvet.All())
	if *times {
		fmt.Fprintln(os.Stderr, "sgvet: per-analyzer wall time:")
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "  %-12s %8.1f ms  %d finding(s)\n", tm.Analyzer, tm.Millis, tm.Findings)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runAudit renders the suppression inventory and enforces the
// justification contract: every //sgvet:ignore must say why the
// invariant holds anyway.
func runAudit(pkgs []*loader.Package) int {
	sups := sgvet.CollectSuppressions(pkgs)
	if len(sups) == 0 {
		fmt.Println("sgvet audit: no suppressions")
		return 0
	}
	bad := 0
	for _, s := range sups {
		reason := s.Reason
		if reason == "" {
			reason = "<no justification>"
			bad++
		}
		fmt.Printf("%s:%d: %s — %s\n", s.File, s.Line, strings.Join(s.Analyzers, ","), reason)
	}
	fmt.Printf("sgvet audit: %d suppression(s), %d without justification\n", len(sups), bad)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "sgvet: audit failed: %d suppression(s) have no justification\n", bad)
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	cliutil.Fatalf("sgvet", format, args...)
}
