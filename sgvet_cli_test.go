package repro

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sgvet"
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
	// -times adds the per-analyzer ledger (stderr), one line per
	// analyzer of the suite, and nothing else.
	out = run(t, tools["sgvet"], "-times", "./internal/bufpool")
	if !strings.Contains(out, "per-analyzer wall time") || strings.Count(out, "finding(s)") != len(sgvet.All()) {
		t.Fatalf("-times report:\n%s", out)
	}
	for _, a := range sgvet.All() {
		if !strings.Contains(out, "  "+a.Name+" ") {
			t.Fatalf("-times report misses %s:\n%s", a.Name, out)
		}
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
}

// TestSgvetEngineCLI drives the flow-sensitive engine through the
// built binary with the whole suite on: a use-after-Release that only
// bufown's helper summary can see is the fixture's one finding.
func TestSgvetEngineCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "sgvet")

	dir := t.TempDir()
	src := `package broken

import "repro/internal/comm"

var ep comm.Endpoint

func drain(m *comm.Message) { m.Release() }

func useAfterHelperRelease() byte {
	m, err := ep.Recv(0, comm.KindUpdate, 1)
	if err != nil {
		return 0
	}
	drain(&m)
	return m.Payload[0]
}
`
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tools["sgvet"], dir)
	cmd.Dir = "."
	b, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 on engine findings, got %v\n%s", err, b)
	}
	out := strings.TrimSpace(string(b))
	if strings.Count(out, "\n") != 0 || !strings.Contains(out, "broken.go:15:") ||
		!strings.Contains(out, "payload used after Release") || !strings.HasSuffix(out, "(bufown)") {
		t.Fatalf("want exactly the bufown finding at line 15:\n%s", out)
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
