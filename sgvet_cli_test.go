package repro

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCompare checks got against the golden file, after normalizing
// the repository root to $ROOT. UPDATE_GOLDEN=1 rewrites the golden.
func goldenCompare(t *testing.T, goldenPath, got string) {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	normalized := strings.ReplaceAll(got, root, "$ROOT")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(normalized), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if normalized != string(want) {
		t.Errorf("%s mismatch (UPDATE_GOLDEN=1 to accept)\n--- want ---\n%s\n--- got ---\n%s",
			goldenPath, want, normalized)
	}
}

// TestSgcAnalyzeJSONGolden pins the stable JSON schema of `sgc analyze
// -json` in both modes, and with it the PR's acceptance property: the
// fixture's viaHelper UDF breaks its neighbor traversal inside a helper
// function, which the isolated-file pass (mode "syntactic": one function
// at a time, helper depth 0) does not follow (loop_carried=false,
// instrumented=not-needed) and the loaded package must (loop_carried=true
// with an uncovered inter_break, instrumented=no).
func TestSgcAnalyzeJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgc")

	syn := run(t, tools["sgc"], "analyze", "-json", "testdata/sgc/udfpkg/udf.go")
	goldenCompare(t, filepath.Join("testdata", "sgc", "syntactic.golden.json"), syn)

	typed := run(t, tools["sgc"], "analyze", "-typed", "-json", "testdata/sgc/udfpkg")
	goldenCompare(t, filepath.Join("testdata", "sgc", "typed.golden.json"), typed)

	// Beyond byte equality, assert the semantic divergence directly so
	// the property survives schema-motivated golden updates.
	type doc struct {
		Mode     string `json:"mode"`
		Packages []struct {
			Funcs []struct {
				Name        string `json:"name"`
				LoopCarried bool   `json:"loop_carried"`
				Inst        string `json:"instrumented"`
				InterBreaks []struct {
					Callee  string `json:"callee"`
					Covered bool   `json:"covered"`
				} `json:"inter_breaks"`
			} `json:"funcs"`
		} `json:"packages"`
	}
	var sd, td doc
	if err := json.Unmarshal([]byte(syn), &sd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(typed), &td); err != nil {
		t.Fatal(err)
	}
	find := func(d doc, name string) (loopCarried bool, inst string, helpers []string) {
		for _, p := range d.Packages {
			for _, f := range p.Funcs {
				if f.Name == name {
					for _, ib := range f.InterBreaks {
						helpers = append(helpers, ib.Callee)
					}
					return f.LoopCarried, f.Inst, helpers
				}
			}
		}
		t.Fatalf("func %s not in %s report", name, d.Mode)
		return
	}
	if lc, inst, _ := find(sd, "viaHelper"); lc || inst != "not-needed" {
		t.Fatalf("isolated pass should miss the helper break: loop_carried=%v instrumented=%s", lc, inst)
	}
	if lc, inst, helpers := find(td, "viaHelper"); !lc || inst != "no" || len(helpers) != 1 || helpers[0] != "firstActive" {
		t.Fatalf("typed pass must see the helper break: loop_carried=%v instrumented=%s helpers=%v", lc, inst, helpers)
	}
}

// TestSgvetCLI runs the standalone linter: clean over the repository
// (exit 0), and findings with exit 1 + the vet line format over a
// deliberately broken fixture package.
func TestSgvetCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgvet")

	// The tree itself must be clean — this is the same gate `make lint`
	// enforces.
	out := run(t, tools["sgvet"], "./...")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("sgvet not clean over the repository:\n%s", out)
	}
	// -times adds the per-analyzer ledger (stderr) and nothing else.
	out = run(t, tools["sgvet"], "-times", "./internal/bufpool")
	if !strings.Contains(out, "per-analyzer wall time") || strings.Count(out, "finding(s)") != 9 || !strings.Contains(out, "lockorder") {
		t.Fatalf("-times report:\n%s", out)
	}

	// A broken fixture: uncovered break → exit 1, file:line:col format.
	dir := t.TempDir()
	src := `package broken

import (
	"repro/internal/core"
	"repro/internal/graph"
)

var frontier interface{ Get(int) bool }

func udf(ctx *core.DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
	for _, u := range srcs {
		ctx.Edge()
		if frontier.Get(int(u)) {
			break
		}
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tools["sgvet"], dir)
	cmd.Dir = "." // module root: the loader resolves repro/... imports from here
	b, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 on findings, got %v\n%s", err, b)
	}
	outStr := string(b)
	if !strings.Contains(outStr, "broken.go:14:") || !strings.Contains(outStr, "EmitDep") || !strings.Contains(outStr, "(depbreak)") {
		t.Fatalf("diagnostic format:\n%s", outStr)
	}

	// -json mode emits the same finding machine-readably.
	cmd = exec.Command(tools["sgvet"], "-json", dir)
	b, _ = cmd.CombinedOutput()
	var diags []struct {
		Analyzer string `json:"analyzer"`
		Line     int    `json:"line"`
	}
	if err := json.Unmarshal(b, &diags); err != nil {
		t.Fatalf("sgvet -json output not JSON: %v\n%s", err, b)
	}
	if len(diags) != 1 || diags[0].Analyzer != "depbreak" || diags[0].Line != 14 {
		t.Fatalf("json diagnostics: %+v", diags)
	}

	// Unknown analyzer name is a usage error.
	cmd = exec.Command(tools["sgvet"], "-c", "nosuch", "./...")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

// TestSgvetEngineCLI drives the three engine-backed analyzers through
// the built binary over one deliberately broken fixture package: a
// use-after-Release that only a helper summary can see (bufown), a
// lock-order inversion (lockorder), and an exit-free goroutine
// (leakgo).
func TestSgvetEngineCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgvet")

	dir := t.TempDir()
	src := `package broken

import (
	"sync"

	"repro/internal/comm"
)

var ep comm.Endpoint

var (
	muA sync.Mutex
	muB sync.Mutex
)

func drain(m *comm.Message) { m.Release() }

func useAfterHelperRelease() byte {
	m, _ := ep.Recv(0, comm.KindUpdate, 1)
	drain(&m)
	return m.Payload[0]
}

func lockAB() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func lockBA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

func leak() {
	go func() {
		for {
		}
	}()
}
`
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tools["sgvet"], "-c", "bufown,lockorder,leakgo", dir)
	cmd.Dir = "."
	b, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 on engine findings, got %v\n%s", err, b)
	}
	out := string(b)
	for _, needle := range []string{"(bufown)", "(lockorder)", "(leakgo)", "payload used after Release", "lock order inversion", "no reachable exit"} {
		if !strings.Contains(out, needle) {
			t.Errorf("engine diagnostics missing %q:\n%s", needle, out)
		}
	}
	// Both directions of the inversion are named.
	if strings.Count(out, "lock order inversion") != 2 {
		t.Errorf("want one inversion diagnostic per direction:\n%s", out)
	}
}

// TestSgvetAudit pins the suppression audit: a justified //sgvet:ignore
// passes and is listed; a bare one fails the run.
func TestSgvetAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgvet")

	writePkg := func(src string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "quiet.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	good := writePkg(`package quiet

//sgvet:ignore bufown fixture exercises the recycled-payload path deliberately
var x = 1
`)
	cmd := exec.Command(tools["sgvet"], "-audit", good)
	cmd.Dir = "."
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("justified suppression failed the audit: %v\n%s", err, b)
	}
	out := string(b)
	if !strings.Contains(out, "bufown — fixture exercises the recycled-payload path deliberately") ||
		!strings.Contains(out, "1 suppression(s), 0 without justification") {
		t.Fatalf("audit listing:\n%s", out)
	}

	bad := writePkg(`package quiet

//sgvet:ignore
var x = 1
`)
	cmd = exec.Command(tools["sgvet"], "-audit", bad)
	cmd.Dir = "."
	b, err = cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("unjustified suppression must fail the audit, got %v\n%s", err, b)
	}
	if !strings.Contains(string(b), "<no justification>") {
		t.Fatalf("audit failure output:\n%s", b)
	}
}

// TestSgvetVettool exercises the `go vet -vettool` protocol over the
// subtrees with the richest invariant surfaces: internal/server and
// internal/obs for the historical analyzers, and internal/comm +
// internal/core for the engine-backed three (mutex discipline, spawned
// worker goroutines, and the SendBufs ownership hand-offs all live
// there). The protocol depends on the toolchain writing export data; if
// this environment's go vet cannot run the tool at all, the test skips
// with the reason — the standalone mode above is the supported gate.
func TestSgvetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgvet")

	cmd := exec.Command("go", "vet", "-vettool="+tools["sgvet"],
		"./internal/server/...", "./internal/obs/...", "./internal/comm/...", "./internal/core/...")
	cmd.Env = os.Environ()
	b, err := cmd.CombinedOutput()
	if err != nil {
		if strings.Contains(string(b), "no export data") || strings.Contains(string(b), "unsupported version") {
			t.Skipf("toolchain cannot feed the vettool protocol here: %v\n%s", err, b)
		}
		t.Fatalf("go vet -vettool: %v\n%s", err, b)
	}

	// And it must still *report* through vet: a broken file in a throwaway
	// module would need network for go.mod resolution, so instead assert
	// the tool's unit-checker honors -V=full (the cache handshake).
	out := run(t, tools["sgvet"], "-V=full")
	if !strings.Contains(out, "sgvet version") {
		t.Fatalf("-V=full handshake: %q", out)
	}
}
