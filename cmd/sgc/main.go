// Command sgc is the SympleGraph UDF analyzer and instrumenter (paper
// §4), the Go counterpart of the paper's clang-LibTooling prototype. It
// analyzes dense-signal UDFs for loop-carried dependency and performs the
// source-to-source transformation that inserts the framework's
// dependency-communication primitives.
//
// Usage:
//
//	sgc analyze udf.go            # print the dependency report of one file,
//	                              # taken in isolation
//	sgc analyze ./pkg             # every .go file under a directory, each in
//	                              # isolation
//	sgc analyze -typed ./pkg      # load the whole package: imported types
//	                              # resolve, helper breaks are followed
//	sgc analyze -json udf.go      # machine-readable report (stable schema)
//	sgc instrument udf.go         # print instrumented source to stdout
//	sgc instrument -w udf.go      # rewrite the file in place
//	sgc instrument -o out.go udf.go
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analyzer"
	"repro/internal/analyzer/typed"
	"repro/internal/cliutil"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	mode := os.Args[1]
	fs := flag.NewFlagSet(mode, flag.ExitOnError)
	write := fs.Bool("w", false, "rewrite files in place (instrument)")
	out := fs.String("o", "", "output path (instrument; default stdout)")
	verbose := fs.Bool("v", false, "verbose: include targets without signal UDFs, print reports while instrumenting")
	useTyped := fs.Bool("typed", false, "load whole packages: imported types resolve and helper calls are followed (analyze)")
	asJSON := fs.Bool("json", false, "emit the report as JSON (analyze)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatalf("%v", err)
	}
	files := fs.Args()
	if len(files) == 0 {
		usage()
	}

	switch mode {
	case "analyze":
		doc, err := typed.AnalyzeTargets(*useTyped, files...)
		if err != nil {
			fatalf("%v", err)
		}
		if *asJSON {
			b, err := doc.MarshalIndent()
			if err != nil {
				fatalf("%v", err)
			}
			os.Stdout.Write(b)
			return
		}
		for i := range doc.Packages {
			pr := &doc.Packages[i]
			if len(pr.Funcs) == 0 && !*verbose {
				continue
			}
			fmt.Printf("== %s (%s) ==\n%s", pr.ImportPath, doc.Mode, pr)
			fmt.Printf("-- %s: %d signal UDFs, %d with loop-carried dependency\n", pr.Dir, len(pr.Funcs), len(pr.LoopCarriedFuncs()))
		}
	case "instrument":
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				fatalf("%v", err)
			}
			instrumented, rep, err := analyzer.Instrument(path, src)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "%s: %d signal UDFs, %d with loop-carried dependency\n",
				path, len(rep.Funcs), len(rep.LoopCarriedFuncs()))
			if *verbose {
				fmt.Fprintf(os.Stderr, "%s", rep)
			}
			switch {
			case *write:
				if err := os.WriteFile(path, instrumented, 0o644); err != nil {
					fatalf("%v", err)
				}
			case *out != "":
				if err := os.WriteFile(*out, instrumented, 0o644); err != nil {
					fatalf("%v", err)
				}
			default:
				os.Stdout.Write(instrumented)
			}
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sgc analyze [-typed] [-json] [-v] target... | sgc instrument [-w] [-o out.go] [-v] file.go...")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	cliutil.Fatalf("sgc", format, args...)
}
