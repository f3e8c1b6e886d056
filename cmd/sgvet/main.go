// Command sgvet runs SympleGraph's invariant lint suite (package
// internal/sgvet) over the repository.
//
// Standalone usage (the supported day-to-day mode, wired into
// `make lint`):
//
//	sgvet ./...                   # whole module
//	sgvet ./internal/server/...   # a subtree
//	sgvet -c depbreak,commerr ./...
//	sgvet -json ./...             # machine-readable diagnostics
//	sgvet -times ./...            # per-analyzer wall-time report
//	sgvet -audit ./...            # list //sgvet:ignore suppressions
//
// Exit status is 0 when clean, 1 when diagnostics were reported (or,
// under -audit, when a suppression has no justification), 2 on usage
// or load errors.
//
// -audit inventories every //sgvet:ignore directive with its file:line,
// analyzer list and justification text; a suppression with an empty
// justification fails the audit, so silencing an analyzer without
// saying why cannot survive CI.
//
// sgvet also speaks enough of the `go vet -vettool` unit-checker
// protocol to be used as
//
//	go vet -vettool=$(which sgvet) ./...
//
// In that mode the Go tool hands sgvet a JSON config per package with
// pre-built export data; sgvet type-checks against it (no source
// re-resolution, see loader.LoadVetUnit) and reports findings in vet's
// file:line:col format. The protocol is best-effort: it depends on the
// toolchain writing export data for dependencies, so the standalone
// mode — which resolves everything from source — remains the mode CI
// relies on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/loader"
	"repro/internal/sgvet"
)

func main() {
	// `go vet` handshake: -V=full asks for a version string used as a
	// build-cache key; -flags asks for the tool's flag schema as JSON
	// (sgvet exposes none in vettool mode).
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "--V=full":
			fmt.Println("sgvet version 2 (symplegraph invariant suite, flow-sensitive engine)")
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	// Unit-checker mode: a single *.cfg argument (go vet protocol).
	if args := os.Args[1:]; len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0]))
	}

	fs := flag.NewFlagSet("sgvet", flag.ExitOnError)
	checks := fs.String("c", "", "comma-separated analyzers to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON")
	audit := fs.Bool("audit", false, "list //sgvet:ignore suppressions; fail on empty justifications")
	times := fs.Bool("times", false, "report per-analyzer wall time on stderr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sgvet [-c analyzers] [-json] [-audit] [-times] [patterns...]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range sgvet.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	analyzers, err := sgvet.ByName(*checks)
	if err != nil {
		fatalf("%v", err)
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

	diags, timings := sgvet.RunTimed(pkgs, analyzers)
	if *times {
		fmt.Fprintln(os.Stderr, "sgvet: per-analyzer wall time:")
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "  %-12s %8.1f ms  %d finding(s)\n", tm.Analyzer, tm.Millis, tm.Findings)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
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

// vetConfig is the subset of cmd/go's vet JSON config sgvet needs
// beyond what the shared loader consumes.
type vetConfig struct {
	loader.VetConfig
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitCheck implements one package of the vettool protocol. Returns the
// process exit code: 0 clean, 2 diagnostics (vet's convention).
func unitCheck(cfgPath string) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgvet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sgvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// sgvet computes no cross-package facts, but go vet requires the
	// facts file to exist for caching.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sgvet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	pkg, err := loader.LoadVetUnit(&cfg.VetConfig)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "sgvet: %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	diags := sgvet.Run([]*loader.Package{pkg}, sgvet.All())
	for _, d := range diags {
		// vet's plain diagnostic format, one per line on stderr.
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", d.File, d.Line, d.Col, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func fatalf(format string, args ...any) {
	cliutil.Fatalf("sgvet", format, args...)
}
