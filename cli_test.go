package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// TestMain owns the directory buildTools links into, so each command
// is built once per test binary however many tests ask for it.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	toolDir   string
	toolMu    sync.Mutex
	toolBuild = map[string]*builtTool{}
)

// builtTool is one command's memoized build.
type builtTool struct {
	once sync.Once
	bin  string
	err  error
}

// buildTools compiles the repository's CLIs into the shared tool
// directory — each at most once per test binary — and returns their
// paths.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range names {
		toolMu.Lock()
		b := toolBuild[name]
		if b == nil {
			b = &builtTool{}
			toolBuild[name] = b
		}
		toolMu.Unlock()
		b.once.Do(func() {
			b.bin = filepath.Join(toolDir, name)
			cmd := exec.Command("go", "build", "-o", b.bin, "./cmd/"+name)
			if log, err := cmd.CombinedOutput(); err != nil {
				b.err = fmt.Errorf("%v\n%s", err, log)
			}
		})
		if b.err != nil {
			t.Fatalf("building %s: %v", name, b.err)
		}
		out[name] = b.bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
	}
	return string(b)
}

// TestCLIPipeline drives the full tool chain: generate a graph with
// sggen, run algorithms over it with symplegraph, and analyze/instrument
// a UDF with sgc.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sggen", "symplegraph", "sgc")
	dir := t.TempDir()

	// 1. Generate a binary graph.
	graphPath := filepath.Join(dir, "g.sg")
	run(t, tools["sggen"], "-type", "rmat", "-scale", "9", "-ef", "8", "-seed", "3",
		"-format", "binary", "-out", graphPath)
	if fi, err := os.Stat(graphPath); err != nil || fi.Size() == 0 {
		t.Fatalf("graph file: %v", err)
	}

	// 2. Run BFS and K-core over it in both modes.
	for _, mode := range []string{"gemini", "symplegraph"} {
		out := run(t, tools["symplegraph"], "-graph", graphPath, "-algo", "bfs",
			"-nodes", "4", "-mode", mode)
		if !strings.Contains(out, "bfs: root=") || !strings.Contains(out, "edges traversed:") {
			t.Fatalf("mode %s output:\n%s", mode, out)
		}
		if mode == "gemini" && !strings.Contains(out, "dependency=0B") {
			t.Fatalf("gemini sent dependency bytes:\n%s", out)
		}
	}
	out := run(t, tools["symplegraph"], "-graph", graphPath, "-algo", "kcore", "-k", "4", "-nodes", "4")
	if !strings.Contains(out, "kcore: k=4") {
		t.Fatalf("kcore output:\n%s", out)
	}

	// 3. Analyze and instrument a UDF.
	udf := filepath.Join(dir, "udf.go")
	src := `package udf

import (
	"repro/internal/core"
	"repro/internal/graph"
)

func signal(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		if frontier.Get(int(u)) {
			ctx.Emit(uint32(u))
			break
		}
	}
}
`
	if err := os.WriteFile(udf, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	analysis := run(t, tools["sgc"], "analyze", udf)
	if !strings.Contains(analysis, "loop-carried dependency") {
		t.Fatalf("analysis output:\n%s", analysis)
	}
	outPath := filepath.Join(dir, "udf_instrumented.go")
	run(t, tools["sgc"], "instrument", "-o", outPath, udf)
	instrumented, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(instrumented), "ctx.EmitDep()") {
		t.Fatalf("instrumented output:\n%s", instrumented)
	}
}

// TestCLITextFormatRoundTrip checks sggen's text output parses.
func TestCLITextFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sggen")
	out := run(t, tools["sggen"], "-type", "grid", "-rows", "4", "-cols", "4", "-format", "text")
	if !strings.Contains(out, "# vertices 16") {
		t.Fatalf("text output:\n%s", out)
	}
}

// TestCLIChaosCrashRecovers runs README's fault-injection walkthrough:
// node 1 crashes at superstep 3, the run restarts once from the
// checkpoint of superstep 2, exits 0 and prints the fault-free answer.
func TestCLIChaosCrashRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "symplegraph")
	out := run(t, tools["symplegraph"], "-algo", "bfs", "-rmat", "14,16,1", "-nodes", "4",
		"-chaos-seed", "7", "-chaos-crash-node", "1", "-chaos-crash-at", "3",
		"-checkpoint-every", "2", "-max-restarts", "1", "-stall-timeout", "5s")
	for _, want := range []string{
		"bfs: root=0 reached=10993 top-down=4 bottom-up=2\n",
		"resilience: restarts=1 ",
		"crashes=1; restarts=1 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestCLITraceOutput runs BFS with -trace and checks the emitted file
// is a parseable Chrome trace_event document whose DenseStep/DepWait
// spans show the circulant pipeline overlapping across nodes.
func TestCLITraceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "symplegraph")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out := run(t, tools["symplegraph"], "-algo", "bfs", "-rmat", "10,8,3",
		"-nodes", "4", "-mode", "symplegraph", "-buffers", "2",
		"-trace", tracePath, "-v")
	if !strings.Contains(out, "bfs: root=") || !strings.Contains(out, "phase node") {
		t.Fatalf("run output:\n%s", out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	type span struct {
		tid     int
		ts, dur float64
	}
	var dense, depWait []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "DenseStep":
			dense = append(dense, span{ev.Tid, ev.Ts, ev.Dur})
		case "DepWait":
			depWait = append(depWait, span{ev.Tid, ev.Ts, ev.Dur})
		}
	}
	if len(dense) == 0 || len(depWait) == 0 {
		t.Fatalf("trace has %d DenseStep and %d DepWait spans", len(dense), len(depWait))
	}
	// The circulant schedule runs dense steps on all nodes concurrently:
	// some node's DenseStep must overlap another node's DenseStep in
	// wall time (DepWait spans nest inside them).
	overlap := false
	for _, a := range dense {
		for _, b := range dense {
			if a.tid != b.tid && a.ts < b.ts+b.dur && b.ts < a.ts+a.dur {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("no cross-node DenseStep overlap in trace")
	}
}

// TestCLIMultiProcessTCP launches two symplegraph processes forming a
// real TCP cluster — the paper's deployment model with OS processes as
// machines.
func TestCLIMultiProcessTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "symplegraph")

	// Reserve two loopback ports.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	addrList := strings.Join(addrs, ",")

	outs := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.Command(tools["symplegraph"],
				"-algo", "mis", "-rmat", "9,8,5", "-mode", "symplegraph",
				"-tcp-id", fmt.Sprint(i), "-tcp-addrs", addrList)
			b, err := cmd.CombinedOutput()
			outs[i], errs[i] = string(b), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("process %d: %v\n%s", i, errs[i], outs[i])
		}
	}
	// Node 0 holds the gathered result; both report traffic.
	if !strings.Contains(outs[0], "mis: size=") {
		t.Fatalf("node 0 output:\n%s", outs[0])
	}
	for i := 0; i < 2; i++ {
		if !strings.Contains(outs[i], "communication: update=") {
			t.Fatalf("node %d output:\n%s", i, outs[i])
		}
	}
	// The two processes computed the same MIS rule; sizes match because
	// node 1 prints its partial view's count only for its masters...
	// assert instead that node 0's size is positive.
	if strings.Contains(outs[0], "mis: size=0 ") {
		t.Fatalf("node 0 found empty MIS:\n%s", outs[0])
	}
}

// TestCLIMatchesService: symplegraph answers through the service's
// dispatch, so for every algorithm its printed result line equals the
// in-process server's Result for the same canonical query — defaults
// included (PageRank once ran 3 iterations on the CLI, 20 in /query).
func TestCLIMatchesService(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "symplegraph")
	const rmat = "9,8,3"
	g, err := (&cliutil.GraphSpec{RMAT: rmat}).Load()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Graphs: map[string]*graph.Graph{"g": g},
		Engine: core.Options{NumNodes: 4, DepThreshold: core.DefaultDepThreshold, NumBuffers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())

	for _, algo := range []string{"bfs", "sssp", "kcore", "mis", "kmeans", "sampling", "pagerank", "cc"} {
		out := run(t, tools["symplegraph"], "-algo", algo, "-rmat", rmat, "-nodes", "4")
		var got string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, algo+": ") {
				got = line
			}
		}

		q, _, err := server.Prepare(server.Request{Algo: algo, Root: -1}, g)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf(
			"/query?graph=g&algo=%s&root=%d&k=%d&centers=%d&iters=%d&rounds=%d&seed=%d",
			algo, q.Root, q.K, q.Centers, q.Iters, q.Rounds, q.Seed), nil))
		var resp server.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: /query answered %d %s", algo, rec.Code, rec.Body)
		}
		r := resp.Result
		want := map[string]string{
			"bfs":      fmt.Sprintf("bfs: root=%d reached=%d top-down=%d bottom-up=%d", q.Root, r.Reached, r.TopDownSteps, r.BottomUpSteps),
			"sssp":     fmt.Sprintf("sssp: root=%d reached=%d", q.Root, r.Reached),
			"mis":      fmt.Sprintf("mis: size=%d rounds=%d", r.Size, r.Rounds),
			"kcore":    fmt.Sprintf("kcore: k=%d size=%d rounds=%d", q.K, r.Size, r.Rounds),
			"kmeans":   fmt.Sprintf("kmeans: centers=%d iterations=%d distsums=%v", q.Centers, q.Iters, r.DistSums),
			"sampling": fmt.Sprintf("sampling: rounds=%d exact-picks=%d", q.Rounds, r.ExactPicks),
			"cc":       fmt.Sprintf("cc: components=%d", r.Components),
			"pagerank": fmt.Sprintf("pagerank: iterations=%d top vertex=%d rank=%.6f", q.Iters, r.TopVertex, r.TopRank),
		}[algo]
		if got != want {
			t.Errorf("%s: symplegraph printed %q, the service answers %q", algo, got, want)
		}
	}
}
