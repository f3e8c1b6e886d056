// Command sgbench regenerates the paper's evaluation tables and figures
// (§7) on laptop-scale stand-in datasets. Absolute numbers differ from
// the paper's 16-node InfiniBand cluster; the shapes — who wins, by what
// factor, where the exceptions fall — are the reproduction target
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	sgbench -all                 # every table and figure
//	sgbench -table 4 -scale 14   # just Table 4 at base scale 14
//	sgbench -figure 11 -nodes 8
//	sgbench -cost
//	sgbench -table 4 -trace t4.json -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/comm"
)

func main() {
	var obsFlags cliutil.Obs
	var resilience cliutil.Resilience
	obsFlags.Register(flag.CommandLine)
	resilience.Register(flag.CommandLine)
	var (
		table   = flag.Int("table", 0, "regenerate one table (1-7)")
		figure  = flag.Int("figure", 0, "regenerate one figure (10 or 11)")
		cost    = flag.Bool("cost", false, "run the COST comparison (§7.4)")
		all     = flag.Bool("all", false, "regenerate everything")
		scale   = flag.Int("scale", 12, "base R-MAT scale for the dataset suite")
		nodes   = flag.Int("nodes", 8, "simulated cluster size")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		roots   = flag.Int("bfs-roots", 4, "BFS roots averaged per cell")
		repeats = flag.Int("repeats", 3, "re-run each cell, keep fastest time")
		study   = flag.String("study", "", "extra study: partition or direction")
		export  = flag.String("export", "", "write the Table 4/5/6 matrix to a .csv or .json file")
		verbose = flag.Bool("v", false, "verbose: per-phase histogram summary after tracing runs")
	)
	flag.Parse()

	if err := obsFlags.Start("sgbench"); err != nil {
		cliutil.Fatalf("sgbench", "%v", err)
	}
	suite := bench.NewSuite(*scale)
	cfg := bench.Config{Nodes: *nodes, Seed: *seed, BFSRoots: *roots, Repeats: *repeats,
		Tracer: obsFlags.Tracer}
	cfg.StallTimeout = resilience.StallTimeout
	cfg.CheckpointEvery = resilience.CheckpointEvery
	cfg.MaxRestarts = resilience.MaxRestarts
	cfg.Fault = resilience.BuildPlan()
	sweep := []int{2, 4, 8, 16}

	ran := false
	emit := func(title, body string) {
		fmt.Printf("=== %s ===\n%s\n", title, body)
		ran = true
	}
	fail := func(what string, err error) {
		cliutil.Fatalf("sgbench", "%s: %v", what, err)
	}

	// Every table, figure and the export read their cells from one
	// matrix, so a cell two of them share is measured once.
	m := new(bench.Matrix)

	if *all || *table == 1 {
		emit("Table 1: dataset statistics", bench.Table1(suite))
	}
	if *all || *table == 2 {
		out, err := bench.Table2(suite, m, cfg)
		if err != nil {
			fail("table 2", err)
		}
		emit("Table 2: K-core runtime vs K", out)
	}
	if *all || *table == 3 {
		out, err := bench.Table3(suite, m, cfg)
		if err != nil {
			fail("table 3", err)
		}
		emit("Table 3: large graphs", out)
	}
	if *all || *table == 4 {
		out, err := bench.Table4(suite, m, cfg)
		if err != nil {
			fail("table 4", err)
		}
		emit("Table 4: execution time", out)
	}
	if *all || *table == 5 {
		out, err := bench.Table5(suite, m, cfg)
		if err != nil {
			fail("table 5", err)
		}
		emit("Table 5: edges traversed (normalized to |E|)", out)
	}
	if *all || *table == 6 {
		out, err := bench.Table6(suite, m, cfg)
		if err != nil {
			fail("table 6", err)
		}
		emit("Table 6: communication breakdown (normalized to Gemini)", out)
	}
	if *all || *table == 7 {
		out, err := bench.Table7(suite, m, cfg, sweep)
		if err != nil {
			fail("table 7", err)
		}
		emit("Table 7: best-performing node count (MIS)", out)
	}
	if *all || *figure == 10 {
		rows, err := bench.Figure10(suite, m, cfg, sweep)
		if err != nil {
			fail("figure 10", err)
		}
		emit("Figure 10: scalability (MIS/s27, normalized runtime)", bench.FormatFigure10(rows))
	}
	if *all || *figure == 11 {
		rows, err := bench.Figure11(suite, m, cfg, bench.Algos)
		if err != nil {
			fail("figure 11", err)
		}
		emit("Figure 11: optimization ablation (geomean, normalized to circulant-only)", bench.FormatFigure11(rows))
		// At laptop scale, dependency frames are tiny on the default
		// interconnect; repeat the ablation on a dependency-bound link
		// where circulating them is a real cost, which is the regime
		// the paper's Figure 11 measures.
		depCfg := cfg
		depCfg.Link = &comm.LinkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 1e6}
		depRows, err := bench.Figure11(suite, m, depCfg, []bench.Algo{bench.AlgoSampling})
		if err != nil {
			fail("figure 11 (dependency-bound)", err)
		}
		emit("Figure 11 (dependency-bound: sampling on a 100µs/1MB/s link)", bench.FormatFigure11(depRows))
	}
	if *all || *cost {
		out, err := bench.COST(suite, m, cfg, sweep)
		if err != nil {
			fail("cost", err)
		}
		emit("COST (§7.4): single thread vs cluster (MIS/s27)", out)
	}
	switch *study {
	case "":
	case "partition":
		out, err := bench.PartitionStudy(suite, *nodes)
		if err != nil {
			fail("partition study", err)
		}
		emit("Partition study (§2.3): edge-load imbalance, outgoing vs incoming edge-cut", out)
	case "direction":
		out, err := bench.DirectionStudy(suite, cfg)
		if err != nil {
			fail("direction study", err)
		}
		emit("Direction study: BFS edges traversed under forced directions", out)
	default:
		fail("study", fmt.Errorf("unknown study %q", *study))
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fail("export", err)
		}
		defer f.Close()
		cells, err := m.Main(suite, cfg)
		if err != nil {
			fail("export", err)
		}
		if strings.HasSuffix(*export, ".json") {
			err = bench.WriteJSON(f, cells)
		} else {
			err = bench.WriteCSV(f, cells)
		}
		if err != nil {
			fail("export", err)
		}
		fmt.Fprintf(os.Stderr, "sgbench: matrix exported to %s\n", *export)
		ran = true
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "sgbench: nothing selected; use -all, -table N, -figure N, -cost, -study or -export")
		os.Exit(2)
	}
	if *verbose && obsFlags.Tracer != nil {
		fmt.Println("=== Phase histograms ===")
		for _, ps := range obsFlags.Tracer.Summaries() {
			if ps.Hist.Count == 0 {
				continue
			}
			fmt.Printf("node%d %-11s count=%d p50=%v p95=%v max=%v\n",
				ps.Node, ps.Phase, ps.Hist.Count, ps.Hist.P50, ps.Hist.P95, ps.Hist.Max)
		}
	}
	if err := obsFlags.Close(); err != nil {
		cliutil.Fatalf("sgbench", "%v", err)
	}
}
