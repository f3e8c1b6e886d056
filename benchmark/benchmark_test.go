package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/server"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {1250, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got, want := relSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func formatQueries(qs []query) string {
	var s string
	for _, q := range qs {
		s += q.String() + "\n"
	}
	return s
}

func formatBatch(ops []server.MutationJSON) string {
	var s string
	for _, m := range ops {
		s += fmt.Sprintf("%s %d %d\n", m.Op, m.Src, m.Dst)
	}
	return s
}

func TestGeneratorsFollowSeed(t *testing.T) {
	g := rmat(10, 3)
	edges := g.Edges()
	same := func(seed uint64) (string, string) {
		qg := newQueryGen(g, seed)
		return formatQueries(qg.hot) + formatQueries(qg.block(2)) + formatQueries(qg.hotReplay(2, 3)),
			formatBatch(mutationBatch(g, edges, seed, 0)) + formatBatch(mutationBatch(g, edges, seed, 5))
	}
	q1, m1 := same(11)
	q2, m2 := same(11)
	q3, m3 := same(12)
	if q1 != q2 || m1 != m2 {
		t.Error("the same seed gave different queries or batches")
	}
	if q1 == q3 || m1 == m3 {
		t.Error("different seeds gave the same queries or batches")
	}
	if a, b := formatQueries(newQueryGen(g, 11).block(0)), formatQueries(newQueryGen(g, 11).block(1)); a == b {
		t.Error("consecutive blocks are identical")
	}
	if rmat(10, 3).NumEdges() != g.NumEdges() || rmat(10, 4).NumEdges() == g.NumEdges() {
		t.Error("graph generation does not follow the seed")
	}
	qg := newQueryGen(g, 11)
	if len(qg.hot) != hotSetSize || len(qg.block(0)) != blockSize {
		t.Errorf("hot set has %d queries and a block %d, want %d and %d", len(qg.hot), len(qg.block(0)), hotSetSize, blockSize)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The manifest the driver reads must list exactly what the program
// reports, under names and units the driver accepts.
func TestMetricsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("manifest run_seconds %v, program default %v", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Workloads) != len(workloadNames) {
		t.Fatalf("manifest has %d workloads, program %d", len(mf.Workloads), len(workloadNames))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if !bounded {
				w.Bound = 0
			}
			if g != w {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(w.Name) || !unitRE.MatchString(w.Unit) || seen[w.Name] {
				t.Errorf("%s %q (%s): bad or repeated name or unit", kind, w.Name, w.Unit)
			}
			seen[w.Name] = true
			if w.Better != "lower" && w.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, w.Name, w.Better)
			}
			if bounded && (w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, w.Name, w.Bound)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	if endToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// Every workload, untraced and traced, on graphs small enough for
// a unit-test run: each must measure, validate, and report every metric of its
// list (and, untraced, none of them zero).
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			r := newRun(config{workload: w, seed: 5, seconds: 0.3, trace: trace, scale: 10, outDir: out})
			if err := workloads[w](r); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if trace {
				if err := r.rec.write(out+"/"+w+".trace.json", r.tracer, r.srvTracer); err != nil {
					t.Fatalf("%s: writing trace: %v", w, err)
				}
			}
			res := r.finish(io.Discard)
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", w, trace, res.Correct, res.Attempted, r.failures)
			}
			list := endToEnd
			if trace {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w, trace, len(res.Metrics), len(list))
			}
			for _, md := range list {
				mv, ok := res.Metrics[md.Name]
				if !ok || mv.Unit != md.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w, trace, md.Name, mv.Unit)
				}
				if !trace && !(mv.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, md.Name, mv.Value)
				}
			}
			if trace && (res.Metrics["core.edges_traversed"].Value <= 0 || res.Metrics["bitset.count_ns_per_kib"].Value <= 0) {
				t.Errorf("%s: traced run reported no engine counters or probes", w)
			}
		}
	}
	t.Logf("smoke took %v (about 6 s without -race on the 2-vCPU box)", time.Since(start))
}

// Counters of the traced reference pass depend on the seed alone.
func TestCountersRepeatExactly(t *testing.T) {
	counts := func() map[string]float64 {
		r := newRun(config{workload: "dep_mem", seed: 9, seconds: 0.2, trace: true, scale: 10, outDir: t.TempDir()})
		if err := runBatch(r); err != nil {
			t.Fatal(err)
		}
		return r.m
	}
	a, b := counts(), counts()
	for _, name := range exactCounts {
		if a[name] != b[name] || a[name] == 0 {
			t.Errorf("%s: %v then %v", name, a[name], b[name])
		}
	}
}
