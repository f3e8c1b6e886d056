// Command benchmark is the repository's performance benchmark: four
// workloads, ten end-to-end metrics, per-layer probes and a traced run.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
// With -workload it runs one workload in this process and ends its
// standard output with the one-line JSON result the driver reads. With
// no -workload it re-executes itself once per workload and trace
// setting (a fresh process each, so heap state and peak_rss_mb belong
// to one workload), prints every metric, and writes result.json; with
// -sets N it does that N times and checks that the sets agree within
// the bounds in BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeconds is run_seconds in BENCHMARK.json, in every mode; a test
// keeps the two equal.
const defaultSeconds = 20

func main() {
	var cfg config
	var trace, sets int
	var manifest string
	flag.StringVar(&cfg.workload, "workload", "", "one of dep_mem, update_tcp, serve_read, serve_mutate; empty runs them all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files and result.json")
	flag.IntVar(&sets, "sets", 0, "self-check: run this many full sets and compare them (with no -workload)")
	flag.StringVar(&manifest, "manifest", "BENCHMARK.json", "bounds for the -sets self-check")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case cfg.workload != "":
		err = runWorkload(cfg)
	default:
		err = runSets(cfg, sets, manifest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var workloads = map[string]func(*run) error{
	"dep_mem":      runBatch,
	"update_tcp":   runBatch,
	"serve_read":   runServeRead,
	"serve_mutate": runServeMutate,
}

// runWorkload runs one workload in this process. A run that could not
// measure prints no result line and fails. A run whose outputs did not
// validate prints its result with correct=false and fails too. Failed
// operations (a non-200, a transport error) are counted in the result
// and do not by themselves fail the run.
func runWorkload(cfg config) error {
	body, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	r := newRun(cfg)
	if err := body(r); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
		if err := r.rec.write(path, r.tracer, r.srvTracer); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if res := r.finish(os.Stdout); !res.Correct {
		return fmt.Errorf("%s: outputs failed validation", cfg.workload)
	}
	return nil
}
