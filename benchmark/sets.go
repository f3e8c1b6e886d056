package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// manifestFile is the part of BENCHMARK.json the self-check reads.
type manifestFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// childRun re-executes this binary for one workload and parses the
// result line. The child's own output is passed through.
func childRun(cfg config, workload string, trace bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t, "-out", cfg.outDir}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if runErr != nil {
		fmt.Println(last)
		return res, fmt.Errorf("%s trace=%s: %w", workload, t, runErr)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s trace=%s: bad result line: %w", workload, t, err)
	}
	return res, nil
}

// exactCounts are the per-layer metrics that repeat exactly for a seed.
var exactCounts = []string{"graph.edges", "core.edges_traversed", "core.vertices_skipped", "core.supersteps",
	"comm.update_bytes", "comm.dep_bytes", "comm.control_bytes", "comm.frames"}

// set is one full set of runs: every workload, untraced then traced.
type set map[string]map[string]float64 // workload → metric → value

func runSet(cfg config) (set, int64, int64, error) {
	s := set{}
	var attempted, failed int64
	for _, w := range workloadNames {
		s[w] = map[string]float64{}
		for _, trace := range []bool{false, true} {
			res, err := childRun(cfg, w, trace)
			if err != nil {
				return nil, 0, 0, err
			}
			attempted += res.Attempted
			failed += res.Failed
			for name, mv := range res.Metrics {
				s[w][name] = mv.Value
			}
		}
	}
	return s, attempted, failed, nil
}

// runSets runs n full sets (one when n is 0), writes result.json, and
// with n ≥ 2 prints each end-to-end metric's median, quartiles and
// relative spread over the sets and fails if any two sets disagree by
// more than the metric's bound.
func runSets(cfg config, n int, manifestPath string) error {
	if n < 1 {
		n = 1
	}
	var mf manifestFile
	if data, err := os.ReadFile(manifestPath); err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	} else if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}

	var sets []set
	var attempted, failed int64
	for i := 0; i < n; i++ {
		fmt.Printf("== set %d of %d, seed %d ==\n", i+1, n, cfg.seed)
		s, a, f, err := runSet(cfg)
		if err != nil {
			return err
		}
		sets = append(sets, s)
		attempted += a
		failed += f
	}

	var disagreements []string
	if n >= 2 {
		fmt.Printf("\n%-13s %-15s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
		for _, w := range workloadNames {
			for _, md := range mf.EndToEnd {
				xs := make([]float64, n)
				lo, hi := sets[0][w][md.Name], sets[0][w][md.Name]
				for i, s := range sets {
					xs[i] = s[w][md.Name]
					lo, hi = min(lo, xs[i]), max(hi, xs[i])
				}
				q1, q2, q3 := quartiles(xs)
				fmt.Printf("%-13s %-15s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%\n",
					w, md.Name, q1, q2, q3, 100*relSpread(xs), 100*md.Bound)
				if lo > 0 && (hi-lo)/lo > md.Bound {
					disagreements = append(disagreements, fmt.Sprintf("%s %s: %g vs %g", w, md.Name, lo, hi))
				}
			}
			// Counters of the traced reference pass depend on the seed
			// alone, so every set must report the same number.
			for _, name := range exactCounts {
				for _, s := range sets[1:] {
					if s[w][name] != sets[0][w][name] {
						disagreements = append(disagreements,
							fmt.Sprintf("%s %s: %v vs %v (must repeat exactly)", w, name, sets[0][w][name], s[w][name]))
						break
					}
				}
			}
		}
	}

	summary := struct {
		Seed          uint64   `json:"seed"`
		Seconds       float64  `json:"seconds"`
		Sets          []set    `json:"sets"`
		OpsAttempted  int64    `json:"ops_attempted"`
		OpsFailed     int64    `json:"ops_failed"`
		Disagreements []string `json:"disagreements"`
		Claim         *string  `json:"claim"` // always null: this benchmark measures, it claims no gain
	}{cfg.seed, cfg.seconds, sets, attempted, failed, disagreements, nil}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (ops attempted %d, failed %d)\n", path, attempted, failed)
	if len(disagreements) > 0 {
		return fmt.Errorf("sets disagree beyond the bounds:\n  %s", strings.Join(disagreements, "\n  "))
	}
	return nil
}
